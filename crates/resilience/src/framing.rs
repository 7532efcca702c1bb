//! Line framing for the workspace's line-delimited JSON protocols.
//!
//! Both TCP daemons — the serve daemon and the remote shard worker — and
//! both of their clients speak one JSON object per line. [`LineBuffer`]
//! is the single framer they share.

/// Incremental line framer: push raw socket reads in, pull complete
/// trimmed lines out. Bytes after the last newline stay buffered until
/// the next push completes them, so partial frames are never mis-parsed.
#[derive(Debug, Default)]
pub struct LineBuffer {
    buf: Vec<u8>,
}

impl LineBuffer {
    /// An empty framer.
    pub fn new() -> LineBuffer {
        LineBuffer { buf: Vec::new() }
    }

    /// Append raw bytes read off the socket.
    pub fn push(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Drain the next complete line, trimmed; blank lines are skipped.
    pub fn next_line(&mut self) -> Option<String> {
        loop {
            let pos = self.buf.iter().position(|&b| b == b'\n')?;
            let line: Vec<u8> = self.buf.drain(..=pos).collect();
            let text = String::from_utf8_lossy(&line).trim().to_owned();
            if !text.is_empty() {
                return Some(text);
            }
        }
    }

    /// Whether nothing (not even a partial frame) is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_buffer_reassembles_split_frames_and_skips_blanks() {
        let mut framer = LineBuffer::new();
        framer.push(b"{\"cmd\":");
        assert_eq!(framer.next_line(), None, "partial frame stays buffered");
        framer.push(b"\"stats\"}\n\n  \n{\"cmd\":\"run\"}\ntail");
        assert_eq!(framer.next_line().as_deref(), Some("{\"cmd\":\"stats\"}"));
        assert_eq!(framer.next_line().as_deref(), Some("{\"cmd\":\"run\"}"));
        assert_eq!(framer.next_line(), None);
        assert!(!framer.is_empty(), "the unterminated tail is still buffered");
        framer.push(b"\n");
        assert_eq!(framer.next_line().as_deref(), Some("tail"));
        assert!(framer.is_empty());
    }
}
