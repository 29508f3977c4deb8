//! `shapex` — validate RDF (Turtle) data against ShExC schemas.
//!
//! ```text
//! shapex validate --schema person.shex --data people.ttl [--engine derivative|backtracking]
//!                 [--node IRI --shape NAME] [--open] [--explain] [--stats]
//! shapex sparql   --schema person.shex --shape NAME [--node IRI]
//! shapex parse    --data people.ttl [--to ntriples|turtle]
//! ```

use std::io::{self, Write};
use std::process::ExitCode;

use cli::CliError;

mod cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out = io::BufWriter::new(io::stdout().lock());
    let ran = cli::run(&args, &mut out);
    // A report is written as it is produced; a failed final flush is a
    // write error too, unless the run had already failed.
    let ran = match (ran, out.flush()) {
        (Err(e @ (CliError::Msg(_) | CliError::Write(_))), _) => Err(e),
        (_, Err(e)) => Err(CliError::Write(e)),
        (ran, Ok(())) => ran,
    };
    match ran {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Exhausted(exhaustion)) => {
            eprintln!("error: {exhaustion}");
            ExitCode::from(cli::EXHAUSTED_EXIT_CODE)
        }
        Err(CliError::NonConforming) => ExitCode::from(cli::NONCONFORMANT_EXIT_CODE),
        Err(CliError::Undetermined) => {
            eprintln!("error: verdict undetermined");
            ExitCode::from(cli::EXHAUSTED_EXIT_CODE)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
