//! Data-source formats and the one parse-by-format dispatch every front
//! end uses.

use crate::graph::Dataset;
use crate::parser::ParseError;
use crate::{ntriples, turtle};

/// Input format of an RDF source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataFormat {
    /// Turtle (the default).
    #[default]
    Turtle,
    /// Strict line-oriented N-Triples, parsed in parallel on the caller's
    /// `jobs` worker threads (byte-identical to a sequential parse).
    NTriples,
}

impl DataFormat {
    /// Detects the format from a file path: `.nt` means N-Triples,
    /// anything else Turtle.
    pub fn from_path(path: &str) -> DataFormat {
        if path.ends_with(".nt") {
            DataFormat::NTriples
        } else {
            DataFormat::Turtle
        }
    }

    /// Parses a client-supplied format name.
    pub fn from_name(name: &str) -> Result<DataFormat, String> {
        match name {
            "turtle" => Ok(DataFormat::Turtle),
            "ntriples" => Ok(DataFormat::NTriples),
            other => Err(format!(
                "unknown data format '{other}' (expected 'turtle' or 'ntriples')"
            )),
        }
    }

    /// Parses `src` in this format. `jobs` is the worker count of the
    /// parallel N-Triples parse ([`ntriples::parse_par`]); Turtle is
    /// parsed sequentially.
    pub fn parse(self, src: &str, jobs: usize) -> Result<Dataset, ParseError> {
        match self {
            DataFormat::Turtle => turtle::parse(src),
            DataFormat::NTriples => ntriples::parse_par(src, jobs),
        }
    }
}
