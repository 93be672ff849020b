//! The paper's §6 comparison baselines, DP-B and DP-P (Cheng, Zeng &
//! Yu, ICDE'13), as test references beside [`crate::brute`].
//!
//! Both pop in the canonical `(score, assignment)` order natively (see
//! [`crate::partition`]), so they emit exactly the stream of every
//! served tree engine, only slower. No [`crate::Algo`] names them and
//! [`crate::build_stream`] never builds them: the claims ledger
//! (`tests/paper_claims.rs`) and the differential tests construct them
//! directly. Both are [`crate::MatchStream`]s, for the tests that pull
//! them through the batched surface and because DP-B is the *mtree*
//! driver of Fig. 9's kGPM comparison ([`crate::KgpmStream::new`]).

pub use crate::dpb::DpBEnumerator;
pub use crate::dpp::DpPEnumerator;

crate::stream::native_match_stream!(DpBEnumerator, DpPEnumerator);
