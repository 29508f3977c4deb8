//! Data-source formats and the one parse-by-format dispatch every front
//! end uses.

use std::io::{self, Read};

use crate::graph::Dataset;
use crate::parser::{ParseError, ReadError};
use crate::{ntriples, turtle};

/// Input format of an RDF source.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DataFormat {
    /// Turtle (the default).
    #[default]
    Turtle,
    /// Strict line-oriented N-Triples: text is parsed in parallel on the
    /// caller's `jobs` worker threads (byte-identical to a sequential
    /// parse); a stream is read in blocks of complete lines.
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

    /// Reads and parses a document in this format from `reader`.
    /// N-Triples is read in blocks of complete lines ([`ntriples::read`]),
    /// so its text is never held whole; Turtle statements span lines, so a
    /// Turtle document is read whole and then parsed. Both parse on the
    /// calling thread.
    pub fn read(self, reader: impl Read) -> Result<Dataset, ReadError> {
        match self {
            DataFormat::Turtle => Ok(turtle::parse(&io::read_to_string(reader)?)?),
            DataFormat::NTriples => ntriples::read(reader),
        }
    }
}
