//! Pinned inputs and outputs of the default seed at scale 1.0.
//!
//! A change to `dj-synth` that alters the load, or a change to an operator
//! that alters what a recipe keeps, fails here loudly instead of silently
//! moving every number. Other seeds and scales are checked against the
//! reference run only, and print their digests.

use crate::corpora::Corpus;
use crate::workloads::Expected;

/// What a generated corpus must look like.
pub struct CorpusPin {
    pub samples: usize,
    pub text_bytes: usize,
    pub digest: u64,
}

pub fn corpus(corpus: Corpus) -> CorpusPin {
    let (samples, text_bytes, digest) = match corpus {
        Corpus::Web => (77_666, 63_335_341, 0xaf4b_54dd_839d_02f5),
        Corpus::Dup => (60_000, 33_869_727, 0xd9f6_55e8_dd83_df30),
        Corpus::Meta => (20_000, 11_356_159, 0x6d77_74e5_8f2a_59dc),
    };
    CorpusPin {
        samples,
        text_bytes,
        digest,
    }
}

const fn out(samples_out: usize, digest: u64) -> Expected {
    Expected {
        samples_out,
        digest,
    }
}

const WEB: Expected = out(74_460, 0xb2a7_d610_afaf_31b6);
const DUP: Expected = out(39_965, 0xa0d7_07e3_39d8_813c);
const META: Expected = out(15_880, 0xb46f_4b37_22fe_bcd3);

/// Expected output of each of a workload's inputs, in tenant order.
/// `web-file` must equal `web-inmem`: same corpus, same recipe, another
/// execution shape.
pub fn outputs(workload: &str) -> Vec<Expected> {
    match workload {
        "web-inmem" | "web-file" => vec![WEB],
        "dup-inmem" => vec![DUP],
        "meta-file-col" => vec![META],
        "serve-4tenant" => vec![
            out(8899, 0x9c13a015c4b844b7),
            out(9437, 0x8f7861662e309c72),
            out(5019, 0x51ee030d5c63b0ec),
            out(2162, 0x30ca63335c66a3bb),
        ],
        other => panic!("no pinned outputs for workload `{other}`"),
    }
}
