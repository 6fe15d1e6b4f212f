//! The §4.1.1 Master–Slave π computation with replicated slaves
//! surviving a tile crash.
//!
//! ```text
//! cargo run -p noc-apps --example master_slave_pi
//! ```

use noc_apps::master_slave::{MasterSlaveApp, MasterSlaveParams};
use noc_faults::CrashSchedule;

fn main() {
    // Replicate every slave twice, then kill one replica of slave 0.
    let params = MasterSlaveParams {
        replication: 2,
        ..MasterSlaveParams::default()
    };
    let victim = MasterSlaveApp::new(params.clone()).slave_assignments()[0][0];
    let mut schedule = CrashSchedule::new();
    schedule.kill_tile(victim.index(), 0);

    println!("Master-Slave pi on a 5x5 stochastic NoC");
    println!("slaves           : 8, replicated x2");
    println!("killed replica   : {victim}");

    let outcome = MasterSlaveApp::new(MasterSlaveParams {
        crash_schedule: schedule,
        ..params
    })
    .run();

    println!("completed        : {}", outcome.completed);
    if let Some(pi) = outcome.pi_estimate {
        println!("pi estimate      : {pi:.9}");
        println!("true pi          : {:.9}", std::f64::consts::PI);
        println!(
            "error            : {:.2e}",
            (pi - std::f64::consts::PI).abs()
        );
    }
    if let Some(round) = outcome.completion_round {
        println!("completion round : {round}");
    }
    println!("packets sent     : {}", outcome.report.packets_sent);
    println!("energy           : {}", outcome.report.total_energy());
}
