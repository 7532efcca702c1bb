//! Markov-chain text generation for synthetic abstracts and transcripts.
//!
//! The humnet corpus generator needs plausible-looking English that is (a)
//! deterministic given a seed, and (b) controllable: papers that "use
//! ethnographic methods" must actually contain those tokens so the audit
//! pipelines have signal to find. A word-level Markov chain trained on
//! small topical seed corpora fits both needs.

use humnet_stats::Rng;
use std::collections::HashMap;

/// A first-order word-level Markov model.
///
/// Training interns every word to a `u32` id. Each word's successors, like
/// the sentence starts, are an id list with a parallel list of counts in
/// first-seen order, so generation looks successors up by id and draws
/// straight from the stored counts.
#[derive(Debug, Clone, Default)]
pub struct MarkovModel {
    /// Interned words, indexed by id.
    words: Vec<String>,
    /// Word -> id, for training.
    ids: HashMap<String, u32>,
    /// Successors of each word, indexed by id.
    successors: Vec<Choices>,
    /// Sentence-start words.
    starts: Choices,
}

/// Word ids with their counts, in first-seen order.
#[derive(Debug, Clone, Default)]
struct Choices {
    ids: Vec<u32>,
    /// Count of `ids[i]`; whole numbers, exact as `f64` below 2^53.
    counts: Vec<f64>,
}

impl Choices {
    fn bump(&mut self, id: u32) {
        match self.ids.iter().position(|&x| x == id) {
            Some(i) => self.counts[i] += 1.0,
            None => {
                self.ids.push(id);
                self.counts.push(1.0);
            }
        }
    }

    fn pick(&self, rng: &mut Rng) -> u32 {
        self.ids[rng.choose_weighted(&self.counts)]
    }
}

impl MarkovModel {
    /// Create an empty model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Train on a sentence (a sequence of tokens). Multiple calls
    /// accumulate. Empty sentences are ignored.
    pub fn train(&mut self, tokens: &[String]) {
        let Some((first, rest)) = tokens.split_first() else {
            return;
        };
        let mut prev = self.intern(first);
        self.starts.bump(prev);
        for word in rest {
            let id = self.intern(word);
            self.successors[prev as usize].bump(id);
            prev = id;
        }
    }

    fn intern(&mut self, word: &str) -> u32 {
        if let Some(&id) = self.ids.get(word) {
            return id;
        }
        let id = u32::try_from(self.words.len()).expect("fewer than 2^32 distinct words");
        self.words.push(word.to_owned());
        self.ids.insert(word.to_owned(), id);
        self.successors.push(Choices::default());
        id
    }

    /// Train on raw text, one sentence at a time.
    pub fn train_text(&mut self, text: &str) {
        for sentence in crate::tokenize::sentences(text) {
            self.train(&crate::tokenize::tokenize(&sentence));
        }
    }

    /// True if the model has no training data.
    pub fn is_empty(&self) -> bool {
        self.starts.ids.is_empty()
    }

    /// Generate a sentence of at most `max_words` words. Returns an empty
    /// vector for an untrained model. Generation stops early when a word
    /// has no successors.
    pub fn generate(&self, max_words: usize, rng: &mut Rng) -> Vec<String> {
        let mut out = Vec::new();
        self.walk(max_words, rng, |word| out.push(word.to_owned()));
        out
    }

    /// Generate a paragraph of `sentences` sentences, capitalized and
    /// period-joined.
    pub fn generate_paragraph(&self, sentences: usize, max_words: usize, rng: &mut Rng) -> String {
        let mut out = String::new();
        if self.is_empty() || max_words == 0 {
            return out;
        }
        for s in 0..sentences {
            if s > 0 {
                out.push(' ');
            }
            let start = out.len();
            let mut first = true;
            self.walk(max_words, rng, |word| {
                if !first {
                    out.push(' ');
                }
                first = false;
                out.push_str(word);
            });
            if let Some(initial) = out.get_mut(start..start + 1) {
                initial.make_ascii_uppercase();
            }
            out.push('.');
        }
        out
    }

    /// Walk the chain from a drawn start word, passing each of at most
    /// `max_words` words to `emit`.
    fn walk<'a>(&'a self, max_words: usize, rng: &mut Rng, mut emit: impl FnMut(&'a str)) {
        if self.is_empty() || max_words == 0 {
            return;
        }
        let mut current = self.starts.pick(rng);
        emit(&self.words[current as usize]);
        for _ in 1..max_words {
            let next = &self.successors[current as usize];
            if next.ids.is_empty() {
                break;
            }
            current = next.pick(rng);
            emit(&self.words[current as usize]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SEED_TEXT: &str = "We measure the network. We interview the operators. \
        The operators maintain the network. The network serves the community.";

    fn trained() -> MarkovModel {
        let mut m = MarkovModel::new();
        m.train_text(SEED_TEXT);
        m
    }

    #[test]
    fn untrained_model_generates_nothing() {
        let m = MarkovModel::new();
        assert!(m.is_empty());
        assert!(m.generate(10, &mut Rng::new(1)).is_empty());
        assert_eq!(m.generate_paragraph(2, 5, &mut Rng::new(1)), "");
    }

    #[test]
    fn generates_only_seen_words() {
        let m = trained();
        let mut rng = Rng::new(2);
        let vocab: Vec<String> = crate::tokenize::tokenize(SEED_TEXT);
        for _ in 0..20 {
            for word in m.generate(12, &mut rng) {
                assert!(vocab.contains(&word), "unseen word {word}");
            }
        }
    }

    #[test]
    fn generates_only_seen_transitions() {
        let m = trained();
        let mut rng = Rng::new(3);
        // Collect training bigrams.
        let mut pairs = std::collections::HashSet::new();
        for s in crate::tokenize::sentences(SEED_TEXT) {
            let toks = crate::tokenize::tokenize(&s);
            for w in toks.windows(2) {
                pairs.insert((w[0].clone(), w[1].clone()));
            }
        }
        for _ in 0..20 {
            let out = m.generate(12, &mut rng);
            for w in out.windows(2) {
                assert!(
                    pairs.contains(&(w[0].clone(), w[1].clone())),
                    "unseen transition {w:?}"
                );
            }
        }
    }

    #[test]
    fn respects_max_words() {
        let m = trained();
        let mut rng = Rng::new(4);
        assert!(m.generate(3, &mut rng).len() <= 3);
        assert!(m.generate(0, &mut rng).is_empty());
    }

    #[test]
    fn deterministic_given_seed() {
        let m = trained();
        let a = m.generate(10, &mut Rng::new(7));
        let b = m.generate(10, &mut Rng::new(7));
        assert_eq!(a, b);
    }

    #[test]
    fn paragraph_is_pinned() {
        // Captured from the String-keyed model this one replaced: the same
        // counts in the same order make the same draws and bytes.
        let mut m = trained();
        m.train_text(
            "Community networks are built and operated by local residents. \
             Volunteers maintain wireless infrastructure in rural areas. \
             We deploy low-cost equipment with community partners. Local operators \
             sustain the network through shared governance.",
        );
        assert_eq!(
            m.generate_paragraph(4, 12, &mut Rng::new(2024)),
            "We deploy low-cost equipment with community networks are built and \
             operated by. Local residents. Volunteers maintain the operators sustain \
             the operators maintain the network serves the. The network through \
             shared governance."
        );
    }

    #[test]
    fn paragraph_has_sentences() {
        let m = trained();
        let p = m.generate_paragraph(3, 8, &mut Rng::new(5));
        assert!(p.matches('.').count() == 3, "paragraph: {p}");
        assert!(p.chars().next().unwrap().is_uppercase());
    }
}
