#![warn(missing_docs)]
//! # ma-vector — columnar vector substrate
//!
//! The execution substrate of the Micro Adaptivity reproduction: typed value
//! vectors of (at most) [`VECTOR_SIZE`] elements, *selection vectors* holding
//! the positions of qualifying tuples, multi-column [`DataChunk`]s flowing
//! between operators, and in-memory columnar [`Table`]s that scans read from.
//!
//! The design follows §1.1 of the paper: a vector is "an array of (e.g. 1000)
//! tuples"; selection primitives produce selection vectors that other
//! primitives consume so that a `Select` never has to copy column data.
//!
//! Strings use an arena representation (`(offset, len)` views into a shared
//! byte buffer) mirroring Vectorwise's `char**` vectors: every element is
//! individually addressable, so *selective computation* (writing `res[i]`
//! only for selected positions `i`) works for strings exactly as for
//! fixed-width types.

pub mod batch;
pub mod builder;
pub mod encode;
pub mod partition;
pub mod schema;
pub mod selvec;
pub mod stats;
pub mod table;
pub mod types;
pub mod vector;

pub use batch::DataChunk;
pub use builder::ColumnBuilder;
pub use encode::{decode_table, encode_column, encode_table, EncColumn, Encoding, ENC_PART_ROWS};
pub use partition::{MorselQueue, RowRange, MORSEL_ROWS, VECTORS_PER_MORSEL};
pub use schema::{Field, Schema};
pub use selvec::SelVec;
pub use stats::{ColumnStats, StatsDomain, ZONE_ROWS};
pub use table::{Column, Table, TableError};
pub use types::{DataType, VECTOR_SIZE};
pub use vector::{StrVec, Vector};
