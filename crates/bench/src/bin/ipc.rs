//! IPC scatter/gather (Section 6): assembling a message from scattered
//! user buffers and a protocol header by software copy vs. Impulse
//! controller gather.
//!
//! Overrides: `buffers=`, `bytes=` (per buffer), `messages=`.

use impulse_bench::{outln, runner::Args};
use impulse_sim::{Machine, Report, SystemConfig};
use impulse_workloads::{IpcGather, IpcVariant};

fn run(buffers: u64, bytes: u64, messages: u64, variant: IpcVariant) -> Report {
    let mut m = Machine::new(&SystemConfig::paint());
    let w = IpcGather::setup(&mut m, buffers, bytes, 64, variant).expect("setup");
    m.reset_stats();
    for _ in 0..messages {
        w.send(&mut m);
    }
    m.report(variant.name())
}

const USAGE: &str = "usage: ipc [--paper] [buffers=N] [bytes=N] [messages=N]";

fn main() {
    let known = ["--paper", "buffers=", "bytes=", "messages="];
    let args = Args::from_env(&known, USAGE);
    let buffers = args.get("buffers", 8);
    let bytes = args.get("bytes", 4096);
    let messages = args.get("messages", if args.paper() { 256 } else { 64 });

    let sw = run(buffers, bytes, messages, IpcVariant::SoftwareGather);
    let imp = run(buffers, bytes, messages, IpcVariant::ImpulseGather);

    outln!("\n================================================================");
    outln!(
        "IPC message assembly — {buffers} buffers × {bytes} B + 64 B header, {messages} messages"
    );
    outln!("================================================================");
    outln!(
        "{:<26}{:>18}{:>20}",
        "",
        "software gather",
        "impulse no-copy"
    );
    outln!("{:<26}{:>18}{:>20}", "cycles", sw.cycles, imp.cycles);
    outln!("{:<26}{:>18}{:>20}", "loads", sw.mem.loads, imp.mem.loads);
    outln!(
        "{:<26}{:>18}{:>20}",
        "stores",
        sw.mem.stores,
        imp.mem.stores
    );
    outln!(
        "{:<26}{:>18}{:>20}",
        "bus traffic (bytes)",
        sw.bus.bytes,
        imp.bus.bytes
    );
    outln!(
        "\nper-message cycles: {} vs {}  (speedup {:.2}x; Impulse removes the\n\
         software gather copy entirely, as Section 6 of the paper suggests)",
        sw.cycles / messages,
        imp.cycles / messages,
        sw.cycles as f64 / imp.cycles as f64
    );
}
