//! Full-scale paper-artefact benchmark for the ADAPT reproduction.
//!
//! Four named workloads regenerate the paper's artefacts (Figure 9 on
//! Cori, a noisy and lossy Stampede2 run with the observability stack
//! attached, and Table 1's ASP) and measure what they cost the host. A
//! plain run reports end-to-end metrics with tracing off; a traced run
//! times the calls into every crate from this package's own shims and
//! reports a per-layer breakdown. Every simulated cell is checked against
//! a committed reference makespan. See `README.md` for the metric and
//! workload tables.

pub mod measure;
pub mod replay;
pub mod report;
pub mod shim;
pub mod workload;

pub use measure::{execute, Execution, Mode, Pass};
pub use report::{end_to_end, per_layer, Metric};
pub use workload::{Cell, CellKind, Workload, DRAWS};
