//! `normanbench`: the end-to-end and per-layer benchmark of the Norman
//! KOPI simulator. See `README.md` for what each workload is for, how
//! the estimator works and how to run it.

pub mod compare;
pub mod json;
pub mod layers;
pub mod replay;
pub mod run;
pub mod spans;
pub mod stats;
pub mod workload;
