//! The §4.1.2 parallel 2-D FFT: scatter row blocks over the NoC,
//! transform in parallel, gather, and verify against the sequential
//! oracle.
//!
//! ```text
//! cargo run -p noc-apps --example fft2d_parallel
//! ```

use noc_apps::fft2d::{Fft2dApp, Fft2dParams};
use stochastic_noc::StochasticConfig;

fn main() {
    let params = Fft2dParams {
        config: StochasticConfig::new(0.5, 16)
            .expect("valid config")
            .with_max_rounds(120),
        ..Fft2dParams::default()
    };
    let app = Fft2dApp::new(params);
    let input = app.test_image();

    println!("parallel FFT2 of a 16x16 image over a 4x4 stochastic NoC");
    println!("workers          : 8 (2 rows each), root on tile 1");

    let outcome = app.run();
    println!("completed        : {}", outcome.completed);
    if let Some(round) = outcome.completion_round {
        println!("completion round : {round} (paper: 5-8 rounds at p=0.5)");
    }
    if let Some(err) = outcome.max_error_against_oracle(&input, 16, 16) {
        println!("max |error| vs sequential fft2d oracle: {err:.3e}");
    }
    println!("packets sent     : {}", outcome.report.packets_sent);
    println!("energy           : {}", outcome.report.total_energy());
}
