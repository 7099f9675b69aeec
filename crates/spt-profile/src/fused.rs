//! Superblock-tier executor for the profiling interpreter.
//!
//! Executes [`SuperblockModule`] code ([`spt_ir::superblock`]): per-block
//! fused superinstruction runs dispatched by one flat opcode match that the
//! compiler lowers to a jump table with every arm inlined (the stable-Rust
//! equivalent of threaded code — an indirect-call handler table defeats
//! register allocation across ops and measures ~2.5x slower), with a
//! per-block dense fallback for irregular blocks (`range: None`) that is a
//! verbatim copy of [`Interp::call`]'s semantics — including recursing back
//! into the fused executor for calls, so callees of degraded functions
//! still run fused.
//!
//! The compact [`SInst`](spt_ir::superblock::SInst) encoding keeps every
//! operand a pre-resolved slot index (constants live in `imm`), so the hot
//! loop below never re-discriminates operand kinds.
//!
//! Two execution regimes per block:
//!
//! * **observed** (`P::OBSERVES`, every real collector): the block runs on
//!   the dense arm, whose per-instruction order *is* the definition of the
//!   profiler event stream — the fused tier accelerates only non-observing
//!   execution, so observed runs stay bit-identical to the reference oracle
//!   by construction;
//! * **non-observing** ([`crate::NoProfiler`] only): hooks and loop-stack
//!   bookkeeping vanish, retirement accounting is batched per block entry
//!   ([`spt_ir::SBlock::retires`]/`cycles`), and the body runs on the
//!   handler table. A fuel precheck (`insts_retired + retires > fuel`)
//!   reroutes the block through the dense arm so an out-of-fuel abort
//!   happens at exactly the instruction the dense tier would abort at.
//!
//! Elided slot writes ([`NO_SLOT`]) are sound here because fused pairs
//! execute atomically in both regimes: nothing can observe the value array
//! between the pair's two halves.
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::interp::{
    dval, Interp, InterpError, LoopActivation, LoopEvent, Profiler, RunState, Val,
};
use spt_ir::decoded::{DKind, DVal};
use spt_ir::superblock::{
    SOpc, SuperblockModule, F2_IMM1, F2_IMM2, F2_OP1_REV, F2_R_RIGHT, F_SWAP, MAX_FUSED_PHIS,
    NO_SLOT,
};
use spt_ir::{BlockId, FuncId};

impl<'m> Interp<'m> {
    /// The superblock-tier twin of [`Interp::call`]: same inputs, same
    /// results, same error points, same profiler event stream.
    pub(crate) fn call_fused<P: Profiler>(
        &self,
        sup: &SuperblockModule,
        func_id: FuncId,
        args: &[Val],
        state: &mut RunState<'_, P>,
        depth: usize,
    ) -> Result<Option<Val>, InterpError> {
        if depth >= self.max_depth {
            return Err(InterpError::StackOverflow);
        }
        let df = self.decoded.func(func_id);
        let sf = sup.func(func_id);
        let mut values: Vec<Val> = state.frame_pool.pop().unwrap_or_default();
        values.clear();
        values.resize(df.num_values(), Val(0));
        let mut loop_stack: Vec<LoopActivation> = Vec::new();

        let mut block = df.entry;
        let mut from: Option<BlockId> = None;
        state.profiler.on_block(func_id, None, block);

        'blocks: loop {
            // Loop bookkeeping only feeds profiler hooks; a non-observing
            // run needs none of it.
            if P::OBSERVES {
                self.update_loops(func_id, df, from, block, &mut loop_stack, state);
            }

            let b = &df.blocks[block.index()];
            let sb = &sf.blocks[block.index()];
            // Fused execution, unless the run observes (the dense arm's
            // per-instruction order defines the event stream), the block is
            // irregular (dense-only), or a batched retire could cross the
            // fuel limit — then the dense arm below reproduces the exact
            // per-instruction abort point. A fused block's phi rows were
            // fully pre-resolved at build time; an entry edge with no
            // schedule (malformed CFG) drops to the dense arm, which raises
            // the exact reference error.
            let mut phi_moves: Option<&[(u32, DVal)]> = None;
            let fused = match sb.range {
                Some(r) if !P::OBSERVES && state.insts_retired + sb.retires <= state.fuel => {
                    if sb.phis.is_empty() {
                        Some(r)
                    } else {
                        match from.and_then(|pred| sb.phis.iter().find(|(p, _)| *p == pred)) {
                            Some((_, moves)) => {
                                phi_moves = Some(moves);
                                Some(r)
                            }
                            None => None,
                        }
                    }
                }
                _ => None,
            };

            if let Some((start, end)) = fused {
                // Precompiled phi moves: all sources read into a stack
                // window, then committed — the same atomic two-phase
                // order as the dense engine, minus its per-row checks.
                if let Some(moves) = phi_moves {
                    let mut buf = [Val(0); MAX_FUSED_PHIS];
                    for (k, &(_, src)) in moves.iter().enumerate() {
                        buf[k] = dval(src, &values);
                    }
                    for (k, &(d, _)) in moves.iter().enumerate() {
                        values[d as usize] = buf[k];
                    }
                }
                // Elided zero-latency constant defs land as raw data, so
                // dense fallbacks and observing reads of those slots stay
                // exact; `sb.retires`/`sb.cycles` still count them.
                for &(slot, bits) in sb.consts.iter() {
                    values[slot as usize] = Val(bits);
                }
                // Batched accounting + jump-table dispatch with every
                // arm inlined. Every op up to the block's terminator
                // falls through, so the loop walks the op slice
                // directly; only the tail transfers or returns.
                state.insts_retired += sb.retires;
                state.weighted_cycles += sb.cycles;
                let vals: &mut [Val] = &mut values;
                let memory: &mut [u64] = &mut state.memory;
                for s in &sf.ops[start as usize..end as usize] {
                    match s.opc {
                        SOpc::Param => {
                            vals[s.dst as usize] =
                                args.get(s.imm as usize).copied().unwrap_or(Val(0));
                        }
                        SOpc::ConstV | SOpc::FoldedDef => {
                            vals[s.dst as usize] = Val(s.imm);
                        }
                        SOpc::AddRR => {
                            let v = vals[s.a as usize]
                                .as_i64()
                                .wrapping_add(vals[s.b as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::AddImm => {
                            let v = vals[s.a as usize].as_i64().wrapping_add(s.imm as i64);
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::SubRR => {
                            let v = vals[s.a as usize]
                                .as_i64()
                                .wrapping_sub(vals[s.b as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::SubImm => {
                            let v = vals[s.a as usize].as_i64().wrapping_sub(s.imm as i64);
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::RsbImm => {
                            let v = (s.imm as i64).wrapping_sub(vals[s.a as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::MulRR => {
                            let v = vals[s.a as usize]
                                .as_i64()
                                .wrapping_mul(vals[s.b as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::MulImm => {
                            let v = vals[s.a as usize].as_i64().wrapping_mul(s.imm as i64);
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::BinRR => {
                            let v = s
                                .bin
                                .eval_i64(vals[s.a as usize].as_i64(), vals[s.b as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::BinImm => {
                            let v = s.bin.eval_i64(vals[s.a as usize].as_i64(), s.imm as i64);
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::BinImmL => {
                            let v = s.bin.eval_i64(s.imm as i64, vals[s.a as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::Fuse2 => {
                            let x = vals[s.a as usize].as_i64();
                            let y = if s.flags & F2_IMM1 != 0 {
                                s.imm as u32 as i32 as i64
                            } else {
                                vals[s.b as usize].as_i64()
                            };
                            let r = if s.flags & F2_OP1_REV != 0 {
                                s.bin.eval_i64(y, x)
                            } else {
                                s.bin.eval_i64(x, y)
                            };
                            let z = if s.flags & F2_IMM2 != 0 {
                                (s.imm >> 32) as u32 as i32 as i64
                            } else {
                                vals[s.aux as usize].as_i64()
                            };
                            let v = if s.flags & F2_R_RIGHT != 0 {
                                s.bin2.eval_i64(z, r)
                            } else {
                                s.bin2.eval_i64(r, z)
                            };
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::Fuse2II => {
                            let r = s
                                .bin
                                .eval_i64(vals[s.a as usize].as_i64(), s.imm as u32 as i32 as i64);
                            let v = s.bin2.eval_i64(r, (s.imm >> 32) as u32 as i32 as i64);
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::Fuse2IR => {
                            let r = s
                                .bin
                                .eval_i64(vals[s.a as usize].as_i64(), s.imm as u32 as i32 as i64);
                            let v = s.bin2.eval_i64(r, vals[s.aux as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::Fuse2IRr => {
                            let r = s
                                .bin
                                .eval_i64(vals[s.a as usize].as_i64(), s.imm as u32 as i32 as i64);
                            let v = s.bin2.eval_i64(vals[s.aux as usize].as_i64(), r);
                            vals[s.dst as usize] = Val::from_i64(v);
                        }
                        SOpc::BinF64RR => {
                            let v = s
                                .bin
                                .eval_f64(vals[s.a as usize].as_f64(), vals[s.b as usize].as_f64());
                            vals[s.dst as usize] = Val::from_f64(v);
                        }
                        SOpc::BinF64Imm => {
                            let v = s
                                .bin
                                .eval_f64(vals[s.a as usize].as_f64(), f64::from_bits(s.imm));
                            vals[s.dst as usize] = Val::from_f64(v);
                        }
                        SOpc::BinF64ImmL => {
                            let v = s
                                .bin
                                .eval_f64(f64::from_bits(s.imm), vals[s.a as usize].as_f64());
                            vals[s.dst as usize] = Val::from_f64(v);
                        }
                        SOpc::UnI64 => {
                            vals[s.dst as usize] =
                                Val::from_i64(s.un.eval_i64(vals[s.a as usize].as_i64()));
                        }
                        SOpc::UnF64 => {
                            vals[s.dst as usize] =
                                Val::from_f64(s.un.eval_f64(vals[s.a as usize].as_f64()));
                        }
                        SOpc::IntToFloat => {
                            vals[s.dst as usize] =
                                Val::from_f64(vals[s.a as usize].as_i64() as f64);
                        }
                        SOpc::FloatToInt => {
                            vals[s.dst as usize] =
                                Val::from_i64(vals[s.a as usize].as_f64() as i64);
                        }
                        SOpc::Copy => {
                            vals[s.dst as usize] = vals[s.a as usize];
                        }
                        SOpc::CmpRR => {
                            let t = s
                                .cmp
                                .eval_i64(vals[s.a as usize].as_i64(), vals[s.b as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(t as i64);
                        }
                        SOpc::CmpImm => {
                            let t = s.cmp.eval_i64(vals[s.a as usize].as_i64(), s.imm as i64);
                            vals[s.dst as usize] = Val::from_i64(t as i64);
                        }
                        SOpc::CmpF64RR => {
                            let t = s
                                .cmp
                                .eval_f64(vals[s.a as usize].as_f64(), vals[s.b as usize].as_f64());
                            vals[s.dst as usize] = Val::from_i64(t as i64);
                        }
                        SOpc::CmpF64Imm => {
                            let t = s
                                .cmp
                                .eval_f64(vals[s.a as usize].as_f64(), f64::from_bits(s.imm));
                            vals[s.dst as usize] = Val::from_i64(t as i64);
                        }
                        SOpc::Load => {
                            let a = vals[s.a as usize].as_i64();
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            vals[s.dst as usize] = Val(memory[a as usize]);
                        }
                        SOpc::LoadImm => {
                            let a = s.imm as i64;
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            vals[s.dst as usize] = Val(memory[a as usize]);
                        }
                        SOpc::StoreRR => {
                            let a = vals[s.a as usize].as_i64();
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            memory[a as usize] = vals[s.b as usize].0;
                        }
                        SOpc::StoreRI => {
                            let a = vals[s.a as usize].as_i64();
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            memory[a as usize] = s.imm;
                        }
                        SOpc::StoreIR => {
                            let a = s.imm as i64;
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            memory[a as usize] = vals[s.b as usize].0;
                        }
                        SOpc::StoreII => {
                            let a = s.aux as usize;
                            if a >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a as i64 });
                            }
                            memory[a] = s.imm;
                        }
                        SOpc::Jump => {
                            from = Some(block);
                            block = s.t1;
                            continue 'blocks;
                        }
                        SOpc::BinJump => {
                            let v = s
                                .bin
                                .eval_i64(vals[s.a as usize].as_i64(), vals[s.b as usize].as_i64());
                            vals[s.dst as usize] = Val::from_i64(v);
                            from = Some(block);
                            block = s.t1;
                            continue 'blocks;
                        }
                        SOpc::BinImmJump => {
                            let a = vals[s.a as usize].as_i64();
                            let v = if s.flags & F_SWAP != 0 {
                                s.bin.eval_i64(s.imm as i64, a)
                            } else {
                                s.bin.eval_i64(a, s.imm as i64)
                            };
                            vals[s.dst as usize] = Val::from_i64(v);
                            from = Some(block);
                            block = s.t1;
                            continue 'blocks;
                        }
                        SOpc::Branch => {
                            from = Some(block);
                            block = if vals[s.a as usize].is_truthy() {
                                s.t1
                            } else {
                                s.t2
                            };
                            continue 'blocks;
                        }
                        SOpc::BranchImm => {
                            from = Some(block);
                            block = if s.imm != 0 { s.t1 } else { s.t2 };
                            continue 'blocks;
                        }
                        SOpc::RetVal => {
                            let v = vals[s.a as usize];
                            state.frame_pool.push(values);
                            return Ok(Some(v));
                        }
                        SOpc::RetImm => {
                            state.frame_pool.push(values);
                            return Ok(Some(Val(s.imm)));
                        }
                        SOpc::RetVoid => {
                            state.frame_pool.push(values);
                            return Ok(None);
                        }
                        SOpc::SptFork | SOpc::SptKill => {}
                        SOpc::CmpBr => {
                            let t = s
                                .cmp
                                .eval_i64(vals[s.a as usize].as_i64(), vals[s.b as usize].as_i64());
                            if s.dst != NO_SLOT {
                                vals[s.dst as usize] = Val::from_i64(t as i64);
                            }
                            from = Some(block);
                            block = if t { s.t1 } else { s.t2 };
                            continue 'blocks;
                        }
                        SOpc::CmpBrImm => {
                            let t = s.cmp.eval_i64(vals[s.a as usize].as_i64(), s.imm as i64);
                            if s.dst != NO_SLOT {
                                vals[s.dst as usize] = Val::from_i64(t as i64);
                            }
                            from = Some(block);
                            block = if t { s.t1 } else { s.t2 };
                            continue 'blocks;
                        }
                        SOpc::LoadBin => {
                            let a = vals[s.a as usize].as_i64();
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            let lv = Val(memory[a as usize]);
                            if s.dst != NO_SLOT {
                                vals[s.dst as usize] = lv;
                            }
                            let other = vals[s.b as usize].as_i64();
                            let v = if s.flags & F_SWAP != 0 {
                                s.bin.eval_i64(other, lv.as_i64())
                            } else {
                                s.bin.eval_i64(lv.as_i64(), other)
                            };
                            vals[s.aux as usize] = Val::from_i64(v);
                        }
                        SOpc::LoadBinImm => {
                            let a = vals[s.a as usize].as_i64();
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            let lv = Val(memory[a as usize]);
                            if s.dst != NO_SLOT {
                                vals[s.dst as usize] = lv;
                            }
                            let v = if s.flags & F_SWAP != 0 {
                                s.bin.eval_i64(s.imm as i64, lv.as_i64())
                            } else {
                                s.bin.eval_i64(lv.as_i64(), s.imm as i64)
                            };
                            vals[s.aux as usize] = Val::from_i64(v);
                        }
                        SOpc::BinStore => {
                            let v = Val::from_i64(s.bin.eval_i64(
                                vals[s.a as usize].as_i64(),
                                vals[s.b as usize].as_i64(),
                            ));
                            if s.dst != NO_SLOT {
                                vals[s.dst as usize] = v;
                            }
                            let a = vals[s.aux as usize].as_i64();
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            memory[a as usize] = v.0;
                        }
                        SOpc::BinStoreImm => {
                            let x = vals[s.a as usize].as_i64();
                            let v = Val::from_i64(if s.flags & F_SWAP != 0 {
                                s.bin.eval_i64(s.imm as i64, x)
                            } else {
                                s.bin.eval_i64(x, s.imm as i64)
                            });
                            if s.dst != NO_SLOT {
                                vals[s.dst as usize] = v;
                            }
                            let a = vals[s.aux as usize].as_i64();
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            memory[a as usize] = v.0;
                        }
                        SOpc::AgenLoad | SOpc::AgenLoadImm => {
                            let x = vals[s.a as usize].as_i64();
                            let a = if s.opc == SOpc::AgenLoad {
                                s.bin.eval_i64(x, vals[s.b as usize].as_i64())
                            } else if s.flags & F_SWAP != 0 {
                                s.bin.eval_i64(s.imm as i64, x)
                            } else {
                                s.bin.eval_i64(x, s.imm as i64)
                            };
                            if s.aux != NO_SLOT {
                                vals[s.aux as usize] = Val::from_i64(a);
                            }
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            vals[s.dst as usize] = Val(memory[a as usize]);
                        }
                        SOpc::AgenStore | SOpc::AgenStoreImm => {
                            let x = vals[s.a as usize].as_i64();
                            let a = if s.opc == SOpc::AgenStore {
                                s.bin.eval_i64(x, vals[s.b as usize].as_i64())
                            } else if s.flags & F_SWAP != 0 {
                                s.bin.eval_i64(s.imm as i64, x)
                            } else {
                                s.bin.eval_i64(x, s.imm as i64)
                            };
                            if s.dst != NO_SLOT {
                                vals[s.dst as usize] = Val::from_i64(a);
                            }
                            if a < 0 || a as usize >= memory.len() {
                                return Err(InterpError::OutOfBounds { addr: a });
                            }
                            memory[a as usize] = vals[s.aux as usize].0;
                        }
                    }
                }
                return Err(InterpError::Malformed(format!(
                    "fused block {block} of {} fell through without terminator",
                    df.name
                )));
            }

            // Dense fallback arm — a verbatim copy of `Interp::call`'s block
            // iteration, except calls recurse into the fused executor.
            if !b.phis.is_empty() {
                let Some(pred) = from else {
                    return Err(InterpError::Malformed(format!(
                        "phi {} in entry block of {}",
                        b.phis[0], df.name
                    )));
                };
                let srcs = match b.preds.iter().position(|&p| p == pred) {
                    Some(pi) => &b.phi_srcs[pi],
                    None => {
                        return Err(InterpError::Malformed(format!(
                            "phi {} missing arg for pred {pred}",
                            b.phis[0]
                        )))
                    }
                };
                state.phi_scratch.clear();
                for (k, &i) in b.phis.iter().enumerate() {
                    let Some(src) = srcs[k] else {
                        return Err(InterpError::Malformed(format!(
                            "phi {i} missing arg for pred {pred}"
                        )));
                    };
                    let v = dval(src, &values);
                    state.phi_scratch.push((i, v));
                }
                for k in 0..state.phi_scratch.len() {
                    let (i, v) = state.phi_scratch[k];
                    values[i.index()] = v;
                    state.profiler.on_def(func_id, i, v, &loop_stack);
                    self.retire(func_id, i, 0, &loop_stack, state)?;
                }
            }

            for &i in b.body.iter() {
                let di = &df.insts[i.index()];
                let latency = di.latency;
                match &di.kind {
                    DKind::Param { index } => {
                        let v = args.get(*index as usize).copied().unwrap_or(Val(0));
                        values[i.index()] = v;
                    }
                    DKind::BinI64 { op, lhs, rhs } => {
                        let a = dval(*lhs, &values);
                        let b2 = dval(*rhs, &values);
                        let v = Val::from_i64(op.eval_i64(a.as_i64(), b2.as_i64()));
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::BinF64 { op, lhs, rhs } => {
                        let a = dval(*lhs, &values);
                        let b2 = dval(*rhs, &values);
                        let v = Val::from_f64(op.eval_f64(a.as_f64(), b2.as_f64()));
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::UnI64 { op, val } => {
                        let v = Val::from_i64(op.eval_i64(dval(*val, &values).as_i64()));
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::UnF64 { op, val } => {
                        let v = Val::from_f64(op.eval_f64(dval(*val, &values).as_f64()));
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::IntToFloat { val } => {
                        let v = Val::from_f64(dval(*val, &values).as_i64() as f64);
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::FloatToInt { val } => {
                        let v = Val::from_i64(dval(*val, &values).as_f64() as i64);
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::CmpI64 { op, lhs, rhs } => {
                        let t =
                            op.eval_i64(dval(*lhs, &values).as_i64(), dval(*rhs, &values).as_i64());
                        let v = Val::from_i64(t as i64);
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::CmpF64 { op, lhs, rhs } => {
                        let t =
                            op.eval_f64(dval(*lhs, &values).as_f64(), dval(*rhs, &values).as_f64());
                        let v = Val::from_i64(t as i64);
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::Copy { val } => {
                        let v = dval(*val, &values);
                        values[i.index()] = v;
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::Const { bits } => {
                        values[i.index()] = Val(*bits);
                    }
                    DKind::Load { addr } => {
                        let a = dval(*addr, &values).as_i64();
                        let cell = self.check_addr(a, &state.memory)?;
                        let v = Val(state.memory[cell]);
                        values[i.index()] = v;
                        state.profiler.on_load(func_id, i, a, v, &loop_stack);
                        state.profiler.on_def(func_id, i, v, &loop_stack);
                    }
                    DKind::Store { addr, val } => {
                        let a = dval(*addr, &values).as_i64();
                        let v = dval(*val, &values);
                        let cell = self.check_addr(a, &state.memory)?;
                        state.memory[cell] = v.0;
                        state.profiler.on_store(func_id, i, a, v, &loop_stack);
                    }
                    DKind::Call {
                        callee,
                        args: cargs,
                    } => {
                        let mut call_args = Vec::with_capacity(cargs.len());
                        for a in cargs.iter() {
                            call_args.push(dval(*a, &values));
                        }
                        state.profiler.on_call_enter(func_id, i, *callee);
                        let ret = self.call_fused(sup, *callee, &call_args, state, depth + 1)?;
                        state.profiler.on_call_exit(func_id, i, *callee);
                        if let Some(v) = ret {
                            values[i.index()] = v;
                            state.profiler.on_def(func_id, i, v, &loop_stack);
                        }
                    }
                    DKind::Unsupported => {
                        return Err(InterpError::Malformed(
                            "interpreter requires SSA form (run mem2reg first)".into(),
                        ));
                    }
                    DKind::Jump { target } => {
                        self.retire(func_id, i, latency, &loop_stack, state)?;
                        state.profiler.on_block(func_id, Some(block), *target);
                        from = Some(block);
                        block = *target;
                        continue 'blocks;
                    }
                    DKind::Branch {
                        cond,
                        then_bb,
                        else_bb,
                    } => {
                        let taken = dval(*cond, &values).is_truthy();
                        let target = if taken { *then_bb } else { *else_bb };
                        self.retire(func_id, i, latency, &loop_stack, state)?;
                        state.profiler.on_block(func_id, Some(block), target);
                        from = Some(block);
                        block = target;
                        continue 'blocks;
                    }
                    DKind::Ret { val } => {
                        self.retire(func_id, i, latency, &loop_stack, state)?;
                        while let Some(act) = loop_stack.pop() {
                            state.profiler.on_loop(
                                func_id,
                                LoopEvent::Exit(act.loop_id),
                                &loop_stack,
                            );
                        }
                        let r = val.map(|v| dval(v, &values));
                        state.frame_pool.push(values);
                        return Ok(r);
                    }
                    DKind::SptFork { .. } | DKind::SptKill { .. } => {}
                    DKind::SkippedPhi => continue,
                }
                self.retire(func_id, i, latency, &loop_stack, state)?;
            }
            return Err(InterpError::Malformed(format!(
                "block {block} of {} fell through without terminator",
                df.name
            )));
        }
    }
}

#[cfg(test)]
mod tests {
    use crate::interp::{Interp, InterpError, NoProfiler, Val};
    use spt_ir::{set_exec_tier_override, ExecTier};
    use std::sync::Mutex;

    /// Tier-override tests share process state; serialize them.
    static SERIAL: Mutex<()> = Mutex::new(());

    fn both(
        src: &str,
        entry: &str,
        args: &[Val],
    ) -> (
        super::super::interp::InterpResult,
        super::super::interp::InterpResult,
    ) {
        let module = spt_frontend::compile(src).expect("compiles");
        let interp = Interp::new(&module);
        let dense = interp
            .run(entry, args, &mut NoProfiler)
            .expect("dense runs");
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_exec_tier_override(Some(ExecTier::Super));
        let fused = interp.run(entry, args, &mut NoProfiler);
        set_exec_tier_override(None);
        (dense, fused.expect("fused runs"))
    }

    #[test]
    fn fused_matches_dense_on_loops_and_memory() {
        let src = "
            global buf[64]: int;
            fn fill(n: int) -> int {
                let k = 0;
                let s = 0;
                while (k < n) { buf[k] = k * 3; s = s + buf[k]; k = k + 1; }
                return s;
            }
            fn main(n: int) -> int { return fill(n) + fill(n / 2); }
        ";
        let (dense, fused) = both(src, "main", &[Val::from_i64(40)]);
        assert_eq!(dense, fused);
    }

    #[test]
    fn fused_matches_dense_on_recursion_and_floats() {
        let src = "
            fn fib(n: int) -> int { if (n < 2) { return n; } return fib(n-1) + fib(n-2); }
            fn main(n: int) -> int { return fib(n); }
        ";
        let (dense, fused) = both(src, "main", &[Val::from_i64(14)]);
        assert_eq!(dense, fused);
    }

    #[test]
    fn fused_preserves_fuel_abort() {
        let src = "fn f() -> int { let x = 1; while (x > 0) { x = x + 1; } return x; }";
        let module = spt_frontend::compile(src).expect("compiles");
        let mut interp = Interp::new(&module);
        interp.fuel = 10_000;
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_exec_tier_override(Some(ExecTier::Super));
        let e = interp
            .run("f", &[], &mut NoProfiler)
            .expect_err("out of fuel");
        set_exec_tier_override(None);
        assert_eq!(e, InterpError::OutOfFuel);
    }

    #[test]
    fn fused_preserves_oob_abort() {
        let src = "global a[2]: int; fn f(i: int) -> int { return a[i]; }";
        let module = spt_frontend::compile(src).expect("compiles");
        let interp = Interp::new(&module);
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        set_exec_tier_override(Some(ExecTier::Super));
        let e = interp
            .run("f", &[Val::from_i64(5000)], &mut NoProfiler)
            .expect_err("oob");
        set_exec_tier_override(None);
        assert!(matches!(e, InterpError::OutOfBounds { .. }));
    }
}
