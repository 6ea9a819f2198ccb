//! Lowering qdisc configurations to overlay programs.
//!
//! The KOPI control plane does not interpret `tc`-style configurations on
//! the NIC; it compiles the *classification* step to an overlay program
//! (one overlay execution per packet assigns the scheduler class) and
//! parameterizes the NIC's native scheduling engine with the per-class
//! weights/rates. This module produces both halves as an
//! [`OverlaySchedulerSetup`].

use overlay::builtins;
use overlay::Program;

/// A compiled scheduler configuration: the classifier program plus the
/// map entries the control plane must install after loading it.
#[derive(Clone, Debug)]
pub struct OverlaySchedulerSetup {
    /// The classifier program to load into the overlay.
    pub program: Program,
    /// `(map, key, value)` entries to install via MMIO after load.
    pub map_fills: Vec<(usize, usize, u64)>,
    /// Per-class weights for the NIC's scheduling engine (WFQ/DRR).
    pub class_weights: Vec<f64>,
}

/// Why a scheduler configuration failed to compile.
#[derive(Clone, Debug, PartialEq)]
pub enum SchedCompileError {
    /// A weight was non-finite (NaN/inf) or not strictly positive.
    InvalidWeight {
        /// `None` for the default weight, `Some(uid)` for a user's.
        uid: Option<u32>,
        /// The offending value.
        weight: f64,
    },
    /// More users than the builtin classifier's 256-entry map can key.
    TooManyUsers(usize),
}

impl std::fmt::Display for SchedCompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchedCompileError::InvalidWeight { uid: None, weight } => {
                write!(f, "default weight {weight} must be finite and positive")
            }
            SchedCompileError::InvalidWeight {
                uid: Some(uid),
                weight,
            } => write!(
                f,
                "weight {weight} for uid {uid} must be finite and positive"
            ),
            SchedCompileError::TooManyUsers(n) => {
                write!(f, "{n} users exceed the 255-user classifier map")
            }
        }
    }
}

impl std::error::Error for SchedCompileError {}

/// Compiles a per-user WFQ configuration: each `(uid, weight)` pair gets
/// its own class; unlisted users share class 0 with weight
/// `default_weight`.
///
/// Rejects non-finite / non-positive weights and more than 255 users (the
/// builtin classifier's map is keyed by `uid & 255`), so the control
/// plane can refuse a bad policy during the verify phase of a commit.
pub fn try_compile_uid_wfq(
    users: &[(u32, f64)],
    default_weight: f64,
) -> Result<OverlaySchedulerSetup, SchedCompileError> {
    if !(default_weight.is_finite() && default_weight > 0.0) {
        return Err(SchedCompileError::InvalidWeight {
            uid: None,
            weight: default_weight,
        });
    }
    if users.len() > 255 {
        return Err(SchedCompileError::TooManyUsers(users.len()));
    }
    if let Some(&(uid, weight)) = users.iter().find(|&&(_, w)| !(w.is_finite() && w > 0.0)) {
        return Err(SchedCompileError::InvalidWeight {
            uid: Some(uid),
            weight,
        });
    }
    let program = builtins::uid_classifier();
    let mut map_fills = Vec::new();
    let mut class_weights = vec![default_weight];
    for (i, &(uid, weight)) in users.iter().enumerate() {
        let class = (i + 1) as u64;
        // The builtin stores class + 1 (0 = default).
        map_fills.push((0, (uid & 255) as usize, class + 1));
        class_weights.push(weight);
    }
    Ok(OverlaySchedulerSetup {
        program,
        map_fills,
        class_weights,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use overlay::{PktCtx, Verdict, Vm};

    fn load(setup: &OverlaySchedulerSetup) -> Vm {
        overlay::verify(&setup.program).expect("compiled program verifies");
        let mut vm = Vm::new(setup.program.clone());
        for &(map, key, value) in &setup.map_fills {
            assert!(vm.map_set(map, key, value), "map fill ({map},{key})");
        }
        vm
    }

    #[test]
    fn uid_wfq_assigns_per_user_classes() {
        let setup = try_compile_uid_wfq(&[(1001, 3.0), (1002, 1.0)], 1.0).unwrap();
        assert_eq!(setup.class_weights, vec![1.0, 3.0, 1.0]);
        let mut vm = load(&setup);
        let v = |uid: u32, vm: &mut Vm| {
            vm.run(&PktCtx {
                uid,
                ..PktCtx::default()
            })
            .unwrap()
            .verdict
        };
        assert_eq!(v(1001, &mut vm), Verdict::Class(1));
        assert_eq!(v(1002, &mut vm), Verdict::Class(2));
        assert_eq!(v(4242, &mut vm), Verdict::Class(0)); // default
    }

    #[test]
    fn try_compile_rejects_invalid_weights() {
        assert!(matches!(
            try_compile_uid_wfq(&[(1, f64::NAN)], 1.0),
            Err(SchedCompileError::InvalidWeight { uid: Some(1), .. })
        ));
        assert!(matches!(
            try_compile_uid_wfq(&[(1, f64::INFINITY)], 1.0),
            Err(SchedCompileError::InvalidWeight { uid: Some(1), .. })
        ));
        assert!(matches!(
            try_compile_uid_wfq(&[(1, 0.0)], 1.0),
            Err(SchedCompileError::InvalidWeight { uid: Some(1), .. })
        ));
        assert!(matches!(
            try_compile_uid_wfq(&[(1, -1.0)], 1.0),
            Err(SchedCompileError::InvalidWeight { uid: Some(1), .. })
        ));
        assert!(matches!(
            try_compile_uid_wfq(&[], -2.0),
            Err(SchedCompileError::InvalidWeight { uid: None, .. })
        ));
        let users: Vec<(u32, f64)> = (0..256).map(|u| (u, 1.0)).collect();
        assert!(matches!(
            try_compile_uid_wfq(&users, 1.0),
            Err(SchedCompileError::TooManyUsers(256))
        ));
        assert!(try_compile_uid_wfq(&[(1001, 2.5)], 1.0).is_ok());
    }
}
