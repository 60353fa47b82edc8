//! Every loop the applications build runs on fused loop-control heads.
//!
//! `emit_loop` is the only source of backward jumps in the applications'
//! bytecode, and `ProgramBuilder::finish` fuses the head of its test and of
//! its step. A change to either that stops the two from meeting fails here
//! instead of silently giving back the interpreter's gain.

use beehive_apps::{App, AppKind, Fidelity};
use beehive_vm::class::MethodBody;
use beehive_vm::{MethodId, Op};

/// Full fidelity, the breakdown's quick fidelity, the fast fidelity every
/// other experiment uses, and the tests' usual one.
const FIDELITIES: [Fidelity; 4] = [
    Fidelity::Full,
    Fidelity::Scaled(4),
    Fidelity::Scaled(1024),
    Fidelity::Scaled(4096),
];

#[test]
fn every_loop_back_edge_closes_fused_heads() {
    assert_eq!(Fidelity::fast(), Fidelity::Scaled(1024));
    for kind in AppKind::all() {
        for fidelity in FIDELITIES {
            let app = App::build(kind, fidelity);
            let program = &app.program;
            let mut loops = 0;
            for m in 0..program.method_count() {
                let def = program.method(MethodId(m as u32));
                let MethodBody::Bytecode(code) = &def.body else {
                    continue;
                };
                let at = |pc: usize| format!("{kind:?} {fidelity:?} {} pc {pc}", def.name);
                for (pc, op) in code.iter().enumerate() {
                    let Op::Jump(top) = *op else { continue };
                    if top as usize > pc {
                        continue;
                    }
                    loops += 1;
                    let Op::LoopTest { ctr, exit } = code[top as usize] else {
                        panic!("{}: loop test at {top} not fused", at(pc));
                    };
                    assert_eq!(code[top as usize + 1], Op::JumpIfZero(exit), "{}", at(pc));
                    assert_eq!(
                        pc.checked_sub(4).map(|head| code[head]),
                        Some(Op::LoopNext { ctr, top }),
                        "{}: loop step not fused",
                        at(pc)
                    );
                }
            }
            assert!(loops > 0, "{kind:?} {fidelity:?} builds no loop");
        }
    }
}
