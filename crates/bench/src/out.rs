//! Standard output for the bench binaries.
//!
//! Every binary prints through [`outln!`](crate::outln) and
//! [`out!`](macro@crate::out), never `println!`, so a reader that closes
//! the pipe early (`sweep | head -1`) costs the binary its remaining
//! output and nothing else: no panic, no exit code 101.

use std::fmt;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};

/// Set once a write has found the reader of stdout gone.
static CLOSED: AtomicBool = AtomicBool::new(false);

/// Writes `args` to stdout. A closed pipe is not a failure: the rest of
/// the output is dropped and the binary runs on to its own exit status,
/// so every file it writes is still written. Any other write error ends
/// the process with exit code 1.
pub fn print(args: fmt::Arguments<'_>) {
    if CLOSED.load(Ordering::Relaxed) {
        return;
    }
    match io::stdout().write_fmt(args) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::BrokenPipe => CLOSED.store(true, Ordering::Relaxed),
        Err(e) => {
            eprintln!("error: write to stdout: {e}");
            std::process::exit(1);
        }
    }
}

/// `print!` through [`out::print`](crate::out::print).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::out::print(format_args!($($arg)*))
    };
}

/// `println!` through [`out::print`](crate::out::print).
#[macro_export]
macro_rules! outln {
    () => {
        $crate::out::print(format_args!("\n"))
    };
    ($($arg:tt)*) => {
        $crate::out::print(format_args!("{}\n", format_args!($($arg)*)))
    };
}
