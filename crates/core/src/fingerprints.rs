//! Dedup fingerprints as flat `u64` words.
//!
//! A deduplicator's fingerprint of a sample is a run of `u64` words — two
//! for a 128-bit content hash, one for a SimHash, `bands × rows` for a
//! MinHash signature, one per paragraph for the paragraph deduplicator.
//! [`Fingerprints`] holds the runs of many samples back to back with the
//! offset each one ends at. It is the one representation between the hash
//! pass, the stage data that carries a spilled stage's fingerprints to the
//! barrier, and clustering: no `Value` is built per word, and a
//! fixed-width deduplicator clusters straight off `words().chunks_exact(width)`.

use crate::error::{DjError, Result};
use crate::value::Value;

/// The fingerprints of a run of samples, in sample order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Fingerprints {
    words: Vec<u64>,
    /// Per sample, the offset into `words` its run ends at (it starts where
    /// the previous one ends): ascending, the last one `words.len()`.
    ends: Vec<u32>,
}

impl Fingerprints {
    pub fn new() -> Fingerprints {
        Fingerprints::default()
    }

    /// Empty, with room for the offsets of `samples` samples.
    pub fn with_capacity(samples: usize) -> Fingerprints {
        Fingerprints {
            words: Vec::new(),
            ends: Vec::with_capacity(samples),
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Every sample's words, back to back.
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// The words of sample `i`.
    pub fn get(&self, i: usize) -> &[u64] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.words[start as usize..self.ends[i] as usize]
    }

    /// Each sample's words, in order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[u64]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }

    /// Add one sample: `hash` appends its words to the buffer it is handed
    /// (which already holds the earlier samples' — it must only append).
    pub fn push_with(&mut self, hash: impl FnOnce(&mut Vec<u64>) -> Result<()>) -> Result<()> {
        let start = self.words.len();
        let end = hash(&mut self.words).and_then(|()| match self.words.len() {
            len if len < start => Err(DjError::Storage(
                "a fingerprint removed words of earlier samples".into(),
            )),
            len => offset(len),
        });
        match end {
            Ok(end) => {
                self.ends.push(end);
                Ok(())
            }
            Err(e) => {
                self.words.truncate(start);
                Err(e)
            }
        }
    }

    /// Add one sample with these words.
    pub fn push(&mut self, words: &[u64]) -> Result<()> {
        self.push_with(|out| {
            out.extend_from_slice(words);
            Ok(())
        })
    }

    /// Add every sample of `other`, in order.
    pub fn append(&mut self, other: &Fingerprints) -> Result<()> {
        offset(self.words.len() + other.words.len())?;
        let base = self.words.len() as u32;
        self.words.extend_from_slice(&other.words);
        self.ends.extend(other.ends.iter().map(|end| base + end));
        Ok(())
    }

    /// The first sample whose run is not `width` words long, if any — the
    /// check a fixed-width deduplicator makes once before it clusters off
    /// `words().chunks_exact(width)`.
    pub fn first_not_of_width(&self, width: usize) -> Option<usize> {
        // The first offset off the `width` grid ends the first such run.
        (0..self.len()).find(|&i| self.ends[i] as usize != (i + 1) * width)
    }

    /// The words behind per-sample fingerprint [`Value`]s, the shapes
    /// [`Deduplicator::compute_hash`](crate::Deduplicator::compute_hash)
    /// produces: an int is one word, a list of ints its words. Anything
    /// else is an error of operator `op` naming the sample.
    pub fn from_values(op: &str, values: &[Value]) -> Result<Fingerprints> {
        let mut out = Fingerprints::with_capacity(values.len());
        for (i, value) in values.iter().enumerate() {
            let ints = value.as_list().unwrap_or(std::slice::from_ref(value));
            out.push_with(|words| {
                let start = words.len();
                words.resize(start + ints.len(), 0);
                for (word, int) in words[start..].iter_mut().zip(ints) {
                    *word = int.as_int().ok_or_else(|| {
                        DjError::op(
                            op,
                            format!("fingerprint of sample {i} must be an int or a list of ints"),
                        )
                    })? as u64;
                }
                Ok(())
            })?;
        }
        Ok(out)
    }
}

/// `words` as an end offset; they are `u32`, so 2³² words is the limit.
fn offset(words: usize) -> Result<u32> {
    u32::try_from(words).map_err(|_| DjError::Storage("more than 2^32 fingerprint words".into()))
}

/// One sample's words as the list-of-ints [`Value`] of Listing 1's
/// `compute_hash` (each word reinterpreted as an `i64`).
pub fn words_to_value(words: &[u64]) -> Value {
    Value::List(words.iter().map(|w| Value::Int(*w as i64)).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_get_append_and_widths() {
        let mut a = Fingerprints::new();
        a.push(&[1, 2]).unwrap();
        a.push(&[]).unwrap();
        a.push(&[3]).unwrap();
        assert_eq!(a.len(), 3);
        assert_eq!(a.words(), &[1, 2, 3]);
        assert_eq!(a.iter().collect::<Vec<_>>(), [&[1, 2][..], &[], &[3]]);
        assert_eq!(a.first_not_of_width(2), Some(1));

        let mut b = Fingerprints::new();
        b.push(&[9, 9]).unwrap();
        b.append(&a).unwrap();
        assert_eq!(b.get(0), &[9, 9]);
        assert_eq!(b.get(1), &[1, 2]);
        assert_eq!(b.get(3), &[3]);
        assert_eq!(b.first_not_of_width(2), Some(2));
        assert_eq!(Fingerprints::new().first_not_of_width(7), None);

        // A failed hash leaves nothing behind.
        let err = b.push_with(|words| {
            words.push(7);
            Err(DjError::op("x", "boom"))
        });
        assert!(err.is_err());
        assert_eq!((b.len(), b.words().len()), (4, 5));
    }

    #[test]
    fn values_unwrap_to_words_and_wrap_back() {
        let values = vec![
            Value::Int(-1),
            words_to_value(&[5, u64::MAX]),
            Value::List(vec![]),
        ];
        let fp = Fingerprints::from_values("op", &values).unwrap();
        assert_eq!(fp.words(), &[u64::MAX, 5, u64::MAX]);
        assert_eq!(fp.iter().map(<[u64]>::len).collect::<Vec<_>>(), [1, 2, 0]);
        assert_eq!(words_to_value(fp.get(1)), values[1]);
        for bad in [Value::from("h"), Value::from(vec!["a"])] {
            let err = Fingerprints::from_values("my_op", &[Value::Int(1), bad]).unwrap_err();
            let text = err.to_string();
            assert!(
                text.contains("my_op") && text.contains("sample 1"),
                "{text}"
            );
        }
    }
}
