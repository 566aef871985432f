//! Thin shim over [`ftbar_cli::run`].

use std::io::{self, Write};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match ftbar_cli::run(&args) {
        Ok(out) => emit(&out),
        Err(e) => {
            // Some failures still carry a result payload for stdout
            // (e.g. `batch` JSON with per-job statuses).
            if let Some(out) = &e.output {
                emit(out);
            }
            eprint!("{}", e.message);
            if !e.message.ends_with('\n') {
                eprintln!();
            }
            std::process::exit(e.code);
        }
    }
}

/// Writes `out` to stdout. A reader that closed the pipe early (`| head`)
/// wants no more output, so a broken pipe is not an error.
fn emit(out: &str) {
    let mut stdout = io::stdout().lock();
    if let Err(e) = stdout
        .write_all(out.as_bytes())
        .and_then(|()| stdout.flush())
    {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("writing stdout: {e}");
            std::process::exit(2);
        }
    }
}
