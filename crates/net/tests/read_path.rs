//! The receiving twin of `round_trips.rs`'s encode test: `net.call.decode`
//! is a sampled span — one received envelope in sixteen pays for two clock
//! reads — and timing them changes nothing that is decoded. The histogram
//! and the switch are process-wide, so this is a test binary of its own and
//! the test holds the `with_enabled` lock.

use mtc_net::proto::{self, FrameBuf, Request, RequestEnvelope};
use mtc_obs::test_support::with_enabled;

#[test]
fn one_envelope_in_sixteen_has_its_decode_timed() {
    let mut wire = Vec::new();
    for seq in 0..160 {
        let request = Request::Commit { txn: seq };
        proto::encode(&mut wire, &RequestEnvelope { seq, request });
    }
    let decode_160 = || {
        let mut buf = FrameBuf::default();
        buf.fill(&mut wire.as_slice()).unwrap();
        let popped: Vec<RequestEnvelope> =
            std::iter::from_fn(|| buf.pop().expect("a whole frame decodes")).collect();
        assert_eq!(popped.len(), 160);
        popped
    };
    let timed = || mtc_obs::registry().histogram("net.call.decode").count();
    let unrecorded = {
        let _off = with_enabled(false);
        let before = timed();
        let popped = decode_160();
        assert_eq!(timed(), before);
        popped
    };
    let _on = with_enabled(true);
    let before = timed();
    assert!(
        decode_160() == unrecorded,
        "recording changed what was read"
    );
    assert_eq!(timed() - before, 10);
}
