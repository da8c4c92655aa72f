//! Command-line helpers shared by the `experiments` and `onesched-svc`
//! binaries: a malformed command line exits 2 with a one-line message
//! naming the binary, never with a panic.

use std::fmt::Display;
use std::str::FromStr;

/// Print `msg` prefixed with this binary's name and exit 2 (bad usage).
pub fn die(msg: impl Display) -> ! {
    eprintln!("{}: {msg}", env!("CARGO_BIN_NAME"));
    std::process::exit(2)
}

/// Pull `--flag value` out of `args`, leaving everything else behind. A
/// flag without a value is a usage error.
pub fn take_flag(args: &mut Vec<String>, flag: &str) -> Option<String> {
    let i = args.iter().position(|a| a == flag)?;
    if i + 1 >= args.len() {
        die(format_args!("{flag} needs a value"));
    }
    let v = args.remove(i + 1);
    args.remove(i);
    Some(v)
}

/// Parse `v` (the value of `what`), or exit 2 naming both.
pub fn parse_or_die<T: FromStr>(what: &str, v: &str) -> T {
    v.parse()
        .unwrap_or_else(|_| die(format_args!("invalid {what}: {v:?}")))
}

/// [`take_flag`] followed by [`parse_or_die`].
pub fn take_parsed<T: FromStr>(args: &mut Vec<String>, flag: &str) -> Option<T> {
    take_flag(args, flag).map(|v| parse_or_die(flag, &v))
}
