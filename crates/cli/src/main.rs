//! `fairrank` — fair ranking, metrics, sampling and aggregation on CSVs.

#![forbid(unsafe_code)]

use fairrank_cli::args::Args;
use fairrank_cli::{commands, CliError};
use std::io::{ErrorKind, Write as _};

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let result = Args::parse(raw).and_then(|args| {
        let output = commands::dispatch(&args)?;
        match args.get("output") {
            Some(path) => std::fs::write(path, &output)
                .map_err(|e| CliError::Input(format!("cannot write {path}: {e}"))),
            None => {
                write_stdout(output.as_bytes());
                Ok(())
            }
        }
    });
    if let Err(e) = result {
        eprintln!("fairrank: {e}");
        eprintln!("run `fairrank help` for usage");
        std::process::exit(match e {
            CliError::Usage(_) => 2,
            _ => 1,
        });
    }
}

/// Write the whole output to stdout in one call. A reader that closed
/// the pipe early (`fairrank rank … | head -2`) has all it wanted, so
/// that ends quietly with status 0; any other write error exits 1.
fn write_stdout(bytes: &[u8]) {
    let mut stdout = std::io::stdout().lock();
    let written = stdout.write_all(bytes).and_then(|()| stdout.flush());
    drop(stdout);
    match written {
        Ok(()) => {}
        Err(e) if e.kind() == ErrorKind::BrokenPipe => std::process::exit(0),
        Err(e) => {
            eprintln!("fairrank: cannot write output: {e}");
            std::process::exit(1);
        }
    }
}
