//! The §4.2 MP3-style encoder pipeline on a 4×4 stochastic NoC, with
//! fault levels configurable from the command line.
//!
//! ```text
//! cargo run -p noc-apps --example mp3_encoder -- [p_upset] [p_overflow] [sigma_synch]
//! cargo run -p noc-apps --example mp3_encoder -- 0.4 0.2 0.3
//! ```

use noc_apps::mp3::{Mp3App, Mp3Params};
use noc_faults::FaultModel;
use stochastic_noc::StochasticConfig;

/// The fault model `[p_upset] [p_overflow] [sigma_synch]` asks for
/// (a missing value is 0), or why the arguments are rejected.
fn fault_model(args: &[String]) -> Result<FaultModel, String> {
    if let Some(extra) = args.get(3) {
        return Err(format!("unexpected argument: {extra:?}"));
    }
    let mut values = [0.0; 3];
    for (value, arg) in values.iter_mut().zip(args) {
        *value = arg.parse().map_err(|_| format!("not a number: {arg:?}"))?;
    }
    let [p_upset, p_overflow, sigma] = values;
    FaultModel::builder()
        .p_upset(p_upset)
        .p_overflow(p_overflow)
        .sigma_synch(sigma)
        .build()
        .map_err(|err| err.to_string())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let model = fault_model(&args).unwrap_or_else(|reason| {
        eprintln!("usage: mp3_encoder [p_upset] [p_overflow] [sigma_synch]");
        eprintln!("{reason}");
        std::process::exit(2);
    });
    let (p_upset, p_overflow, sigma) = (model.p_upset, model.p_overflow, model.sigma_synch);

    let params = Mp3Params {
        frames: 24,
        fault_model: model,
        config: StochasticConfig::new(0.6, 20)
            .expect("valid config")
            .with_max_rounds(800),
        ..Mp3Params::default()
    };
    let app = Mp3App::new(params);
    let mapping = *app.mapping();

    println!("MP3-style encoder pipeline on a 4x4 stochastic NoC");
    println!(
        "stages           : acq={} psy={} mdct={} enc={} res={} out={}",
        mapping.acquisition,
        mapping.psycho,
        mapping.mdct,
        mapping.encoder,
        mapping.reservoir,
        mapping.output
    );
    println!("faults           : upset={p_upset} overflow={p_overflow} sigma={sigma}");

    let outcome = app.run();
    println!(
        "frames delivered : {}/{}",
        outcome.frames_delivered, outcome.frames_requested
    );
    println!("completed        : {}", outcome.completed);
    println!("output bits      : {}", outcome.output_bits);
    if let Some(rate) = outcome.bitrate_per_round() {
        println!("bit-rate         : {rate:.1} bits/round");
    }
    if let Some(jitter) = outcome.jitter() {
        println!("arrival jitter   : {jitter:.2} rounds");
    }
    println!("upsets detected  : {}", outcome.report.upsets_detected);
    println!("overflow drops   : {}", outcome.report.overflow_drops);
    println!("clock slips      : {}", outcome.report.clock_slips);
    println!("energy           : {}", outcome.report.total_energy());
}

#[cfg(test)]
mod tests {
    use super::fault_model;

    fn parse(args: &[&str]) -> Result<noc_faults::FaultModel, String> {
        fault_model(&args.iter().map(ToString::to_string).collect::<Vec<_>>())
    }

    #[test]
    fn arguments_it_cannot_use_are_rejected() {
        for bad in [
            &["abc"][..],
            &["1.5"],
            &["NaN"],
            &["0.4", "0.2", "-1"],
            &["0.1", "0.1", "0.1", "x"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?} was accepted");
        }
        let model = parse(&["0.4", "0.2", "0.3"]).unwrap();
        assert_eq!(
            (model.p_upset, model.p_overflow, model.sigma_synch),
            (0.4, 0.2, 0.3)
        );
        assert!(parse(&[]).unwrap().is_fault_free());
    }
}
