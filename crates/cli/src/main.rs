//! `rect-addr` — command-line front-end: one call to
//! `rect_addr_cli::run`, the function the CLI's tests call, with the
//! process's stdin, stdout and stderr.

use std::io::{stderr, stdin, stdout, BufReader};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // `StdinLock` is not `Send`, and the streaming subcommands read stdin
    // on a thread of their own.
    let mut input = BufReader::new(stdin());
    let status = rect_addr_cli::run(&args, &mut input, &mut stdout(), &mut stderr());
    ExitCode::from(status)
}
