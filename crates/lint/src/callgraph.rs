//! A conservative, name-resolved call graph over the workspace.
//!
//! Calls resolve only when the analysis can justify the target:
//! `self.method()` within the impl type, `expr.method()` when the receiver
//! path types out to a known struct, `Type::assoc(...)` by impl type, and
//! `module::free(...)` by file stem. Everything else is **opaque** — an
//! unresolved call contributes nothing, so imprecision silences findings
//! rather than inventing them.
//!
//! Each function gets a [`Summary`] of the locks it acquires and whether
//! it can block, closed transitively over resolved calls, which is what
//! lets the guard-liveness walk in [`crate::dataflow`] see one call level
//! past a held guard (`refresh → plan::refine → … → parallel::run_sharded`).

use std::collections::BTreeSet;

use crate::dataflow::{scan_direct, Direct};
use crate::symbols::Workspace;

/// What one function does, directly and through resolved calls.
#[derive(Debug, Default, Clone)]
pub struct Summary {
    /// Canonical lock names acquired in this fn's own body.
    pub acquires: BTreeSet<String>,
    /// Canonical lock names acquired here or in any resolved callee.
    pub acquires_star: BTreeSet<String>,
    /// Description of a direct blocking call (`wait`, `join`, …).
    pub blocks: Option<String>,
    /// Description of a blocking call reachable through resolved calls,
    /// qualified with the path (`join via plan::refine`).
    pub blocks_star: Option<String>,
    /// The lock whose guard this fn returns, when its return type is a
    /// guard (`fn lock(&self) -> MutexGuard<'_, Inner>` patterns).
    pub returns_guard: Option<String>,
    /// Resolved callee function ids.
    pub calls: BTreeSet<usize>,
}

/// Builds per-function summaries and closes them over the call graph.
pub fn summarize(ws: &Workspace) -> Vec<Summary> {
    let mut summaries: Vec<Summary> = ws
        .fns
        .iter()
        .enumerate()
        .map(|(id, _)| {
            let Direct { acquires, blocks, calls, returns_guard } = scan_direct(ws, id);
            Summary {
                acquires_star: acquires.clone(),
                acquires,
                blocks_star: blocks.clone(),
                blocks,
                returns_guard,
                calls,
            }
        })
        .collect();

    // Fixpoint: propagate acquisitions and blocking reachability up the
    // (acyclic or not) resolved call graph. Bounded by the total number of
    // (fn, lock) pairs, so it terminates even on recursive code.
    loop {
        let mut changed = false;
        for id in 0..summaries.len() {
            let callees: Vec<usize> = summaries[id].calls.iter().copied().collect();
            for callee in callees {
                if callee == id {
                    continue;
                }
                let (acq, blk, callee_name) = {
                    let s = &summaries[callee];
                    (s.acquires_star.clone(), s.blocks_star.clone(), fn_label(ws, callee))
                };
                let me = &mut summaries[id];
                for a in acq {
                    changed |= me.acquires_star.insert(a);
                }
                if me.blocks_star.is_none() {
                    if let Some(why) = blk {
                        // Keep the first hop visible: `wait via Latch::wait`.
                        let why = if why.contains(" via ") {
                            let head = why.split(" via ").next().unwrap_or(&why).to_string();
                            format!("{head} via {callee_name}")
                        } else {
                            format!("{why} via {callee_name}")
                        };
                        me.blocks_star = Some(why);
                        changed = true;
                    }
                }
            }
        }
        if !changed {
            break;
        }
    }
    summaries
}

/// Human label for a function: `Type::name` or `module::name`.
pub fn fn_label(ws: &Workspace, id: usize) -> String {
    let f = &ws.fns[id];
    match &f.item.self_ty {
        Some(ty) => format!("{ty}::{}", f.item.name),
        None => {
            let module = crate::symbols::module_name(&ws.paths[f.file]);
            format!("{module}::{}", f.item.name)
        }
    }
}

/// Resolves a method call through its receiver path (`["self", "metrics"]`
/// + `record_hit`) to a function id, or `None` (opaque).
pub fn resolve_method(
    ws: &Workspace,
    self_ty: Option<&str>,
    recv_struct: Option<&str>,
    name: &str,
) -> Option<usize> {
    let _ = self_ty;
    let s = recv_struct?;
    ws.methods.get(&(s.to_string(), name.to_string())).copied()
}

/// Resolves a qualified or bare call (`plan::execute`, `Latch::new`,
/// `execute_monitored`) to a function id, or `None` (opaque).
pub fn resolve_path_call(
    ws: &Workspace,
    file: usize,
    qualifier: Option<&str>,
    name: &str,
) -> Option<usize> {
    match qualifier {
        Some(q) if !matches!(q, "crate" | "self" | "super") => {
            if ws.structs.contains_key(q) || ws.aliases.contains_key(q) {
                // `Type::assoc(...)`, resolving aliases to their struct.
                let target = if ws.structs.contains_key(q) {
                    Some(q.to_string())
                } else {
                    ws.aliases.get(q).and_then(|raw| {
                        let norm = crate::symbols::normalize_type(raw, None);
                        ws.struct_in_type(&norm).map(str::to_string)
                    })
                };
                return ws.methods.get(&(target?, name.to_string())).copied();
            }
            if let Some(&mfile) = ws.modules.get(q) {
                return ws.free_in_file.get(&(mfile, name.to_string())).copied();
            }
            // Unknown qualifier (std type, foreign crate): opaque.
            None
        }
        _ => {
            // Bare or crate-relative: same file first, then a workspace-wide
            // unique free fn.
            if let Some(&id) = ws.free_in_file.get(&(file, name.to_string())) {
                return Some(id);
            }
            match ws.free_fns.get(name).map(Vec::as_slice) {
                Some([only]) => Some(*only),
                _ => None,
            }
        }
    }
}
