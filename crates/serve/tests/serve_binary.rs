//! The binary wire dialect, end to end: negotiation and bit-exact
//! parity with the JSON dialect.
//!
//! A session driven over the binary dialect serves a Hyper stream
//! bitwise identical to the same stream served over JSON — the dialect
//! changes the bytes on the wire, never the trajectory. Both dialects
//! are requested explicitly, so the pin holds whatever `YF_SERVE_WIRE`
//! says.

use yf_serve::{
    Authority, Client, ClientConfig, FilterSpec, MeasureReply, OpenSpec, Outcome, ServeConfig,
    Server, Session, WireDialect,
};
use yf_tensor::rng::Pcg32;

const DIM: usize = 16;

fn spec(name: &str, optimizer: &str) -> OpenSpec {
    OpenSpec {
        session: name.to_string(),
        optimizer: optimizer.to_string(),
        value: 0.1,
        dim: DIM,
        authority: Authority::default(),
        filter: FilterSpec::default(),
    }
}

fn cfg(wire: WireDialect) -> ClientConfig {
    ClientConfig {
        wire,
        ..ClientConfig::default()
    }
}

/// A deterministic measurement stream with occasional outliers so
/// filter rejections are part of the compared trajectory.
fn stream(seed: u64, frames: usize) -> Vec<(f32, Vec<f32>)> {
    let mut rng = Pcg32::seed_stream(seed, 0x5e);
    (0..frames)
        .map(|i| {
            let scale = if i % 13 == 12 { 1e7 } else { 1.0 };
            let loss = rng.uniform();
            let grads = (0..DIM).map(|_| scale * (rng.uniform() - 0.5)).collect();
            (loss, grads)
        })
        .collect()
}

fn reference(open: &OpenSpec, frames: &[(f32, Vec<f32>)]) -> Vec<Outcome> {
    let mut session = Session::new(open.clone()).unwrap();
    frames
        .iter()
        .enumerate()
        .map(|(i, (loss, grads))| session.measure(i as u64, *loss, grads).unwrap())
        .collect()
}

fn reply_matches(reply: &MeasureReply, want: &Outcome, context: &str) {
    match (reply, want) {
        (
            MeasureReply::Tuned { hyper, clamped },
            Outcome::Tuned {
                hyper: w,
                clamped: wc,
            },
        ) => {
            assert_eq!(hyper.lr.to_bits(), w.lr.to_bits(), "{context}: lr");
            assert_eq!(
                hyper.momentum.to_bits(),
                w.momentum.to_bits(),
                "{context}: momentum"
            );
            assert_eq!(
                hyper.grad_scale.to_bits(),
                w.grad_scale.to_bits(),
                "{context}: grad_scale"
            );
            assert_eq!(clamped, wc, "{context}: clamped");
        }
        (MeasureReply::Rejected { reason }, Outcome::Rejected { reason: w }) => {
            assert_eq!(reason, w, "{context}: rejection reason");
        }
        (got, want) => panic!("{context}: got {got:?}, reference says {want:?}"),
    }
}

#[test]
fn binary_dialect_serves_a_bitwise_identical_hyper_stream() {
    // The acceptance pin: the same measurement stream through a JSON
    // connection, a binary connection, and the in-process reference
    // yields three bitwise-identical verdict streams.
    let server = Server::start(ServeConfig {
        snapshot_dir: None,
        ..ServeConfig::default()
    })
    .unwrap();
    let addr = server.local_addr();
    for optimizer in ["yellowfin", "adam"] {
        let frames = stream(91, 40);
        let json_spec = spec(&format!("parity-json-{optimizer}"), optimizer);
        let bin_spec = spec(&format!("parity-bin-{optimizer}"), optimizer);
        let want = reference(&json_spec, &frames);

        let mut json_client = Client::connect_with(addr, &cfg(WireDialect::Json)).unwrap();
        let mut bin_client = Client::connect_with(addr, &cfg(WireDialect::Binary)).unwrap();
        assert_eq!(json_client.open(json_spec.clone()).unwrap(), 0);
        assert_eq!(bin_client.open(bin_spec.clone()).unwrap(), 0);
        assert_eq!(json_client.wire(), WireDialect::Json);
        assert_eq!(
            bin_client.wire(),
            WireDialect::Binary,
            "server must accept the requested binary dialect"
        );

        for (i, (loss, grads)) in frames.iter().enumerate() {
            let step = i as u64;
            let context = format!("{optimizer} step {step}");
            let via_json = json_client
                .measure(&json_spec.session, step, *loss, grads)
                .unwrap();
            let via_bin = bin_client
                .measure(&bin_spec.session, step, *loss, grads)
                .unwrap();
            reply_matches(&via_json, &want[i], &format!("{context} (json)"));
            reply_matches(&via_bin, &want[i], &format!("{context} (binary)"));
        }
    }
}
