//! `shapex` — validate RDF (Turtle) data against ShExC schemas.
//!
//! ```text
//! shapex validate --schema person.shex --data people.ttl [--engine derivative|backtracking]
//!                 [--node IRI --shape NAME] [--open] [--explain] [--stats]
//! shapex sparql   --schema person.shex --shape NAME [--node IRI]
//! shapex parse    --data people.ttl [--to ntriples|turtle]
//! ```

use std::process::ExitCode;

mod cli;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match cli::run(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(cli::CliError::Exhausted { output, exhaustion }) => {
            print!("{output}");
            eprintln!("error: {exhaustion}");
            ExitCode::from(cli::EXHAUSTED_EXIT_CODE)
        }
        Err(cli::CliError::NonConforming { output }) => {
            print!("{output}");
            ExitCode::from(cli::NONCONFORMANT_EXIT_CODE)
        }
        Err(cli::CliError::Undetermined { output }) => {
            print!("{output}");
            eprintln!("error: verdict undetermined");
            ExitCode::from(cli::EXHAUSTED_EXIT_CODE)
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
