//! Guard-liveness dataflow and the three semantic rules.
//!
//! Binding a `.lock()` / `.read()` / `.write()` result (or a call that
//! returns a guard, like `Metrics::lock`) starts a **guard region** that
//! ends at `drop(guard)`, at the end of the enclosing block, or — for
//! unbound temporaries — at the end of the statement. While a region is
//! live:
//!
//! * acquiring another lock adds an edge to the global **lock-order
//!   graph** (`lock-order-inversion` reports any cycle, with the witness
//!   site of every edge);
//! * a blocking call (`Condvar::wait`, a thread or pool `spawn`, ticket
//!   `wait*`, channel `recv*`, `join`) is `lock-held-across-blocking` —
//!   unless the guard is *passed to* the wait, which releases it (the
//!   condvar protocol);
//! * resolved callees contribute their transitive lock/blocking summary,
//!   so a guard held across `plan::refine` sees the shard `join` of
//!   `parallel::run_sharded` frames down.
//!
//! A third rule, `alloc-in-kernel-hot-loop`, flags `Vec::new` / `vec!` /
//! `.push` / `.to_vec` / `.collect` inside loop bodies of the propagation
//! kernels, which must stay on `SpmvScratch`'s recycled buffers.
//!
//! Unresolvable receivers are skipped, not guessed: imprecision silences
//! a finding rather than inventing one.

use std::collections::{BTreeMap, BTreeSet};

use crate::analyze::Finding;
use crate::callgraph::{fn_label, resolve_method, resolve_path_call, Summary};
use crate::lexer::{Token, TokenKind};
use crate::parse::{Block, Elem, Stmt};
use crate::rules::RuleId;
use crate::symbols::{normalize_type, Workspace};

/// Method names that block the calling thread.
pub const BLOCKING_METHODS: [&str; 8] = [
    "wait",
    "wait_timeout",
    "wait_while",
    "spawn",
    "recv",
    "recv_timeout",
    "recv_deadline",
    "join",
];

/// Guard-producing method names (empty-argument forms only, so
/// `io::Write::write(buf)` and `Read::read(buf)` never match).
const ACQUIRE_METHODS: [&str; 3] = ["lock", "read", "write"];

/// Adapter methods that keep a guard chain a guard (`.lock()
/// .unwrap_or_else(PoisonError::into_inner)` is still the guard).
const CHAIN_ADAPTERS: [&str; 3] = ["unwrap_or_else", "unwrap", "expect"];

/// What one function does directly (input to [`crate::callgraph`]).
#[derive(Debug, Default)]
pub struct Direct {
    /// Canonical lock names acquired in the body.
    pub acquires: BTreeSet<String>,
    /// First directly-blocking call name, if any.
    pub blocks: Option<String>,
    /// Resolved callee function ids.
    pub calls: BTreeSet<usize>,
    /// Lock whose guard the fn returns (guard-typed return + acquisition).
    pub returns_guard: Option<String>,
}

/// One edge of the discovered lock-order graph, with its witness site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockEdge {
    /// Canonical name of the lock held.
    pub from: String,
    /// Canonical name of the lock acquired while holding `from`.
    pub to: String,
    /// Witness file.
    pub file: String,
    /// Witness line (1-based).
    pub line: u32,
    /// Witness column (1-based).
    pub col: u32,
    /// Function containing the witness.
    pub func: String,
}

/// The semantic pass output: findings plus the deduplicated edge list.
#[derive(Debug, Default)]
pub struct SemanticOutput {
    /// `lock-held-across-blocking`, `alloc-in-kernel-hot-loop` and
    /// `lock-order-inversion` findings, unsorted.
    pub findings: Vec<Finding>,
    /// Lock-order edges, one witness per `(from, to)` pair, sorted.
    pub edges: Vec<LockEdge>,
}

/// Scans one function's body for its direct facts (no interprocedural
/// context, findings discarded).
pub fn scan_direct(ws: &Workspace, fn_id: usize) -> Direct {
    let mut w = Walker::new(ws, None, fn_id);
    let body = ws.fns[fn_id].item.body.clone();
    w.walk_block(&body, 1, 0);
    let f = ws.fns[fn_id].item;
    if normalize_type(&f.ret, f.self_ty.as_deref()).contains("Guard") {
        w.direct.returns_guard = w.last_acquire.clone();
    }
    w.direct
}

/// Runs the full semantic pass over every non-test function.
pub fn analyze_semantic(ws: &Workspace, summaries: &[Summary]) -> SemanticOutput {
    let mut findings = Vec::new();
    let mut edges: BTreeMap<(String, String), LockEdge> = BTreeMap::new();
    for (id, f) in ws.fns.iter().enumerate() {
        if f.item.in_test {
            continue;
        }
        let mut w = Walker::new(ws, Some(summaries), id);
        let body = f.item.body.clone();
        w.walk_block(&body, 1, 0);
        findings.append(&mut w.findings);
        for e in w.edges {
            if e.from != e.to {
                edges.entry((e.from.clone(), e.to.clone())).or_insert(e);
            }
        }
    }
    let edges: Vec<LockEdge> = edges.into_values().collect();
    findings.extend(cycle_findings(&edges));
    SemanticOutput { findings, edges }
}

/// A live guard region.
struct Guard {
    /// The binding name (`None` for statement temporaries).
    name: Option<String>,
    /// Canonical lock name.
    lock: String,
    /// Block depth of the binding (the region dies when its block exits).
    depth: usize,
    /// Statement id of the binding (temporaries die at statement end).
    stmt: u64,
}

struct Walker<'w, 'a> {
    ws: &'w Workspace<'a>,
    summaries: Option<&'w [Summary]>,
    file: usize,
    self_ty: Option<String>,
    func: String,
    params: BTreeMap<String, String>,
    locals: BTreeMap<String, String>,
    guards: Vec<Guard>,
    next_stmt: u64,
    alloc_scope: bool,
    last_acquire: Option<String>,
    direct: Direct,
    findings: Vec<Finding>,
    edges: Vec<LockEdge>,
}

impl<'w, 'a> Walker<'w, 'a> {
    fn new(ws: &'w Workspace<'a>, summaries: Option<&'w [Summary]>, fn_id: usize) -> Self {
        let f = &ws.fns[fn_id];
        let self_ty = f.item.self_ty.clone();
        let params = f
            .item
            .params
            .iter()
            .map(|p| (p.name.clone(), normalize_type(&p.ty, self_ty.as_deref())))
            .collect();
        let path = &ws.paths[f.file];
        Walker {
            ws,
            summaries,
            file: f.file,
            func: fn_label(ws, fn_id),
            self_ty,
            params,
            locals: BTreeMap::new(),
            guards: Vec::new(),
            next_stmt: 0,
            alloc_scope: RuleId::AllocInKernelHotLoop.applies_to(path),
            last_acquire: None,
            direct: Direct::default(),
            findings: Vec::new(),
            edges: Vec::new(),
        }
    }

    fn path(&self) -> &str {
        &self.ws.paths[self.file]
    }

    fn walk_block(&mut self, block: &Block, depth: usize, loop_depth: usize) {
        for stmt in &block.stmts {
            self.walk_stmt(stmt, depth, loop_depth);
        }
        self.guards.retain(|g| g.depth < depth);
    }

    fn walk_stmt(&mut self, stmt: &Stmt, depth: usize, loop_depth: usize) {
        let stmt_id = self.next_stmt;
        self.next_stmt += 1;

        // Statement-level token list (nested blocks excluded) and the
        // paren depth at each position, for binding detection.
        let flat: Vec<&Token> = stmt
            .elems
            .iter()
            .filter_map(|e| match e {
                Elem::Tok(t) => Some(t),
                Elem::Block(_) => None,
            })
            .collect();
        let mut pdepth = vec![0i64; flat.len()];
        let mut d = 0i64;
        for (i, t) in flat.iter().enumerate() {
            pdepth[i] = d;
            match t.text.as_str() {
                "(" | "[" => d += 1,
                ")" | "]" => d -= 1,
                _ => {}
            }
        }

        let let_name = self.scan_let(&flat, stmt_id);

        // Walk elements in order, interleaving token events with nested
        // blocks so guard lifetimes line up with source order.
        let mut fi = 0usize; // cursor into `flat`
        let mut since_block_start = 0usize;
        for elem in &stmt.elems {
            match elem {
                Elem::Tok(_) => {
                    self.token_event(&flat, &pdepth, fi, stmt_id, depth, let_name.as_deref());
                    if loop_depth > 0 {
                        self.alloc_event(&flat, fi);
                    }
                    fi += 1;
                }
                Elem::Block(b) => {
                    let header = &flat[since_block_start..fi];
                    let looping = header.iter().any(|t| {
                        t.kind == TokenKind::Ident
                            && matches!(t.text.as_str(), "for" | "while" | "loop")
                    });
                    since_block_start = fi;
                    let child_loop = loop_depth + usize::from(looping);
                    self.walk_block(b, depth + 1, child_loop);
                }
            }
        }

        // Temporaries die with the statement.
        self.guards.retain(|g| !(g.stmt == stmt_id && g.name.is_none()));
    }

    /// Records `let` bindings' declared or constructor-inferred types.
    /// Returns the bound name for simple `let name = ...` statements.
    fn scan_let(&mut self, flat: &[&Token], _stmt: u64) -> Option<String> {
        if flat.first()?.text != "let" {
            return None;
        }
        let mut i = 1;
        if flat.get(i)?.text == "mut" {
            i += 1;
        }
        let name_tok = flat.get(i)?;
        if name_tok.kind != TokenKind::Ident {
            return None;
        }
        let name = name_tok.text.clone();
        match flat.get(i + 1).map(|t| t.text.as_str()) {
            Some(":") => {
                // `let x: Ty = ...` — record the annotation.
                let tstart = i + 2;
                let mut k = tstart;
                let mut d = 0i64;
                while k < flat.len() {
                    match flat[k].text.as_str() {
                        "(" | "[" | "<" => d += 1,
                        ")" | "]" | ">" => d -= 1,
                        "-" if flat.get(k + 1).is_some_and(|t| t.text == ">") => k += 1,
                        "=" if d <= 0 => break,
                        _ => {}
                    }
                    k += 1;
                }
                let raw: Vec<&str> = flat[tstart..k].iter().map(|t| t.text.as_str()).collect();
                let norm = normalize_type(&raw.join(" "), self.self_ty.as_deref());
                self.locals.insert(name.clone(), norm);
            }
            Some("=") => {
                // `let x = Type::ctor(...)` — infer from the first known
                // struct/alias used as a path qualifier in the initializer.
                for k in i + 2..flat.len().saturating_sub(2) {
                    let t = flat[k];
                    if t.kind == TokenKind::Ident
                        && flat[k + 1].text == ":"
                        && flat[k + 2].text == ":"
                    {
                        if let Some(s) = self.ws.struct_in_type(&t.text) {
                            self.locals.insert(name.clone(), s.to_string());
                            break;
                        }
                    }
                }
            }
            _ => return None, // patterns (`let (a, b) = ...`) bind nothing
        }
        Some(name)
    }

    /// Handles the token event starting at `flat[i]`, if any.
    fn token_event(
        &mut self,
        flat: &[&Token],
        pdepth: &[i64],
        i: usize,
        stmt_id: u64,
        depth: usize,
        let_name: Option<&str>,
    ) {
        let t = flat[i];
        let text = t.text.as_str();
        let next = flat.get(i + 1).map(|t| t.text.as_str());

        // `drop(guard)` ends the named region.
        if text == "drop"
            && next == Some("(")
            && flat.get(i + 2).is_some_and(|t| t.kind == TokenKind::Ident)
            && flat.get(i + 3).is_some_and(|t| t.text == ")")
        {
            let victim = flat[i + 2].text.clone();
            self.guards.retain(|g| g.name.as_deref() != Some(victim.as_str()));
            return;
        }

        // Direct acquisition: `.lock()` / `.read()` / `.write()` with
        // empty argument lists.
        if text == "."
            && flat.get(i + 1).is_some_and(|t| {
                t.kind == TokenKind::Ident && ACQUIRE_METHODS.contains(&t.text.as_str())
            })
            && flat.get(i + 2).is_some_and(|t| t.text == "(")
            && flat.get(i + 3).is_some_and(|t| t.text == ")")
        {
            let segments = self.receiver_path(flat, i);
            if let Some(segs) = &segments {
                if let Some(lock) = self.resolve_lock(segs) {
                    self.acquire(&lock, flat, pdepth, i, stmt_id, depth, let_name);
                    return;
                }
            }
            // Not a std lock on a known field: maybe a workspace method
            // named `lock` (`Metrics::lock`) — fall through to call
            // handling below via the method-name position.
        }

        // Calls: `name(` — method (`.name(`), qualified (`path::name(`)
        // or bare (`name(`).
        if t.kind == TokenKind::Ident && next == Some("(") && !is_call_keyword(text) {
            let prev = i.checked_sub(1).map(|p| flat[p].text.as_str());
            let callee = if prev == Some(".") {
                let recv = self.receiver_path(flat, i - 1);
                let recv_struct = recv.as_deref().and_then(|s| self.resolve_recv_struct(s));
                resolve_method(self.ws, self.self_ty.as_deref(), recv_struct.as_deref(), text)
            } else if prev == Some(":") && i >= 3 && flat[i - 2].text == ":" {
                let q = (flat[i - 3].kind == TokenKind::Ident).then(|| flat[i - 3].text.as_str());
                resolve_path_call(self.ws, self.file, q, text)
            } else if flat.get(i.wrapping_sub(1)).is_some_and(|t| t.text == "fn") {
                None // a nested `fn name(...)` declaration, not a call
            } else {
                resolve_path_call(self.ws, self.file, None, text)
            };
            self.call_event(callee, text, flat, pdepth, i, stmt_id, depth, let_name);
        }
    }

    /// Processes a (possibly unresolved) call at `flat[i]`.
    #[allow(clippy::too_many_arguments, reason = "the scan's per-token position state")]
    fn call_event(
        &mut self,
        callee: Option<usize>,
        name: &str,
        flat: &[&Token],
        pdepth: &[i64],
        i: usize,
        stmt_id: u64,
        depth: usize,
        let_name: Option<&str>,
    ) {
        if let Some(id) = callee {
            self.direct.calls.insert(id);
        }
        if BLOCKING_METHODS.contains(&name) && self.direct.blocks.is_none() {
            self.direct.blocks = Some(name.to_string());
        }
        let Some(summaries) = self.summaries else {
            return; // direct-fact scan: no interprocedural context
        };
        let summary = callee.map(|id| &summaries[id]);

        // The blocking description: a blocking name, or a resolved callee
        // that can transitively block.
        let blocking = if BLOCKING_METHODS.contains(&name) {
            Some(name.to_string())
        } else {
            summary.and_then(|s| s.blocks_star.clone()).map(|why| format!("{name} → {why}"))
        };
        if let Some(desc) = blocking {
            // Guards passed as arguments are *released* by the wait
            // (the condvar protocol), so they are not held across it.
            let args = self.call_arg_idents(flat, i + 1);
            let held: Vec<String> = self
                .guards
                .iter()
                .filter(|g| g.name.as_deref().is_none_or(|n| !args.contains(n)))
                .map(|g| g.lock.clone())
                .collect();
            if !held.is_empty() && RuleId::LockHeldAcrossBlocking.applies_to(self.path()) {
                let t = flat[i];
                self.findings.push(Finding {
                    rule: RuleId::LockHeldAcrossBlocking,
                    file: self.path().to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "guard of `{}` held across blocking call `{desc}` in `{}`; \
                         drop the guard before blocking, or waive with the \
                         protocol that makes this safe",
                        held.join("`, `"),
                        self.func,
                    ),
                });
            }
        }

        let Some(s) = summary else { return };
        // One call level past the held region: the callee's transitive
        // acquisitions order after every live guard.
        let t = flat[i];
        let acquired: Vec<String> = s.acquires_star.iter().cloned().collect();
        let held: Vec<String> = self.guards.iter().map(|g| g.lock.clone()).collect();
        for from in held {
            for to in &acquired {
                if &from != to {
                    self.edges.push(LockEdge {
                        from: from.clone(),
                        to: to.clone(),
                        file: self.path().to_string(),
                        line: t.line,
                        col: t.col,
                        func: self.func.clone(),
                    });
                }
            }
        }
        // A guard-returning callee bound by a `let` starts a region.
        if let (Some(lock), Some(bind)) = (&s.returns_guard, let_name) {
            if pdepth[i] == 0 && self.chain_ends(flat, i) {
                let lock = lock.clone();
                self.start_guard(&lock, Some(bind.to_string()), stmt_id, depth);
            }
        }
    }

    /// Records a direct acquisition of `lock` at `flat[i]` (the `.`).
    #[allow(clippy::too_many_arguments, reason = "the scan's per-token position state")]
    fn acquire(
        &mut self,
        lock: &str,
        flat: &[&Token],
        pdepth: &[i64],
        i: usize,
        stmt_id: u64,
        depth: usize,
        let_name: Option<&str>,
    ) {
        self.direct.acquires.insert(lock.to_string());
        self.last_acquire = Some(lock.to_string());
        if self.summaries.is_some() {
            let t = flat[i + 1];
            for g in &self.guards {
                if g.lock != lock {
                    self.edges.push(LockEdge {
                        from: g.lock.clone(),
                        to: lock.to_string(),
                        file: self.path().to_string(),
                        line: t.line,
                        col: t.col,
                        func: self.func.clone(),
                    });
                }
            }
        }
        // Bound guard iff the `let` initializer *is* this guard chain at
        // paren depth zero; everything else is a statement temporary.
        let bound =
            let_name.filter(|_| pdepth[i] == 0 && self.chain_ends(flat, i)).map(str::to_string);
        self.start_guard(lock, bound, stmt_id, depth);
    }

    fn start_guard(&mut self, lock: &str, name: Option<String>, stmt_id: u64, depth: usize) {
        // Re-binding a name replaces the old region.
        if let Some(n) = &name {
            self.guards.retain(|g| g.name.as_deref() != Some(n.as_str()));
        }
        self.guards.push(Guard { name, lock: lock.to_string(), depth, stmt: stmt_id });
    }

    /// Whether the call/acquisition whose name sits at or after `flat[i]`
    /// ends the expression chain (only poison-recovery adapters may
    /// follow). A trailing `.clone()`/`.iter()`/... means the binding is a
    /// derived value, not the guard.
    fn chain_ends(&self, flat: &[&Token], i: usize) -> bool {
        // Find the `(` that opens this call's arguments.
        let mut j = i;
        while j < flat.len() && flat[j].text != "(" {
            j += 1;
        }
        loop {
            // Skip the balanced argument list.
            let mut d = 0i64;
            while j < flat.len() {
                match flat[j].text.as_str() {
                    "(" => d += 1,
                    ")" => {
                        d -= 1;
                        if d == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
                j += 1;
            }
            j += 1; // past the `)`
            if flat.get(j).is_some_and(|t| t.text == "?") {
                j += 1;
            }
            if flat.get(j).is_none_or(|t| t.text != ".") {
                return true;
            }
            let adapter =
                flat.get(j + 1).is_some_and(|t| CHAIN_ADAPTERS.contains(&t.text.as_str()));
            if !adapter {
                return false;
            }
            j += 2; // at the adapter's `(`
        }
    }

    /// Identifier arguments of the call whose `(` is at `flat[open]`.
    fn call_arg_idents(&self, flat: &[&Token], open: usize) -> BTreeSet<String> {
        let mut out = BTreeSet::new();
        let mut d = 0i64;
        let mut j = open;
        while j < flat.len() {
            match flat[j].text.as_str() {
                "(" => d += 1,
                ")" => {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                _ => {
                    if flat[j].kind == TokenKind::Ident && d > 0 {
                        out.insert(flat[j].text.clone());
                    }
                }
            }
            j += 1;
        }
        out
    }

    /// Walks back from the `.` at `flat[dot]` collecting a simple
    /// `base.field.field` receiver path; `None` when the receiver is a
    /// call result, indexing or other complex expression.
    fn receiver_path(&self, flat: &[&Token], dot: usize) -> Option<Vec<String>> {
        let mut segments: Vec<String> = Vec::new();
        let mut k = dot;
        loop {
            if k == 0 || flat[k].text != "." {
                break;
            }
            let prev = flat.get(k - 1)?;
            if prev.kind != TokenKind::Ident {
                return None; // `foo().bar` / `xs[i].bar` / literal
            }
            segments.push(prev.text.clone());
            if k < 2 {
                k = 0;
                break;
            }
            k -= 2;
            if flat[k + 1].text != "." && flat.get(k).is_some_and(|t| t.text == ".") {
                continue;
            }
            if flat.get(k).is_some_and(|t| t.text == ".") {
                continue;
            }
            k += 1;
            break;
        }
        if segments.is_empty() {
            return None;
        }
        // The token before the path head must not extend the expression.
        if k > 0 {
            let before = flat.get(k - 1).map(|t| t.text.as_str());
            if matches!(before, Some(")") | Some("]")) {
                return None;
            }
        }
        segments.reverse();
        Some(segments)
    }

    /// The type string of a path head: `self`, a parameter, an inferred
    /// local, or a static.
    fn base_type(&self, head: &str) -> Option<String> {
        if head == "self" {
            return self.self_ty.clone();
        }
        if let Some(ty) = self.locals.get(head) {
            return Some(ty.clone());
        }
        if let Some(ty) = self.params.get(head) {
            return Some(ty.clone());
        }
        if let Some(raw) = self.ws.statics.get(head) {
            return Some(normalize_type(raw, None));
        }
        None
    }

    /// Resolves a receiver path to the canonical lock it acquires, if its
    /// last segment is a lock-typed field (or the head itself is
    /// lock-typed for single-segment paths).
    fn resolve_lock(&self, segments: &[String]) -> Option<String> {
        let mut ty = self.base_type(&segments[0])?;
        if segments.len() == 1 {
            return self.ws.lock_in_type(&ty, self.self_ty.as_deref());
        }
        for seg in &segments[1..segments.len() - 1] {
            let s = self.ws.struct_in_type(&ty)?.to_string();
            let raw = self.ws.structs.get(&s)?.fields.get(seg)?.clone();
            ty = normalize_type(&raw, Some(&s));
        }
        let owner = self.ws.struct_in_type(&ty)?.to_string();
        self.ws.field_lock(&owner, segments.last()?)
    }

    /// Resolves a receiver path to the struct providing its methods.
    fn resolve_recv_struct(&self, segments: &[String]) -> Option<String> {
        let mut ty = self.base_type(&segments[0])?;
        for seg in &segments[1..] {
            let s = self.ws.struct_in_type(&ty)?.to_string();
            let raw = self.ws.structs.get(&s)?.fields.get(seg)?.clone();
            ty = normalize_type(&raw, Some(&s));
        }
        self.ws.struct_in_type(&ty).map(str::to_string)
    }

    /// Flags allocation in a kernel hot loop at `flat[i]`.
    fn alloc_event(&mut self, flat: &[&Token], i: usize) {
        if !self.alloc_scope {
            return;
        }
        let t = flat[i];
        let next = flat.get(i + 1).map(|t| t.text.as_str());
        let what = if t.text == "Vec"
            && next == Some(":")
            && flat.get(i + 2).is_some_and(|t| t.text == ":")
            && flat.get(i + 3).is_some_and(|t| t.text == "new")
        {
            Some("Vec::new")
        } else if t.kind == TokenKind::Ident && t.text == "vec" && next == Some("!") {
            Some("vec!")
        } else if t.text == "."
            && flat
                .get(i + 1)
                .is_some_and(|t| matches!(t.text.as_str(), "push" | "to_vec" | "collect"))
            && flat.get(i + 2).is_some_and(|t| t.text == "(" || t.text == ":")
        {
            match flat[i + 1].text.as_str() {
                "push" => Some(".push"),
                "to_vec" => Some(".to_vec"),
                _ => Some(".collect"),
            }
        } else {
            None
        };
        if let Some(what) = what {
            self.findings.push(Finding {
                rule: RuleId::AllocInKernelHotLoop,
                file: self.path().to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{what}` inside a kernel hot loop: propagation kernels must \
                     reuse `SpmvScratch` buffers, or waive with the reservation \
                     argument"
                ),
            });
        }
    }
}

fn is_call_keyword(text: &str) -> bool {
    matches!(
        text,
        "if" | "while"
            | "for"
            | "match"
            | "loop"
            | "return"
            | "in"
            | "as"
            | "move"
            | "break"
            | "continue"
            | "let"
            | "else"
            | "unsafe"
            | "fn"
            | "ref"
            | "mut"
    )
}

/// Detects cycles in the deduplicated edge list and reports one finding
/// per strongly-connected component, listing every intra-component edge
/// with its witness chain.
pub fn cycle_findings(edges: &[LockEdge]) -> Vec<Finding> {
    let mut nodes: BTreeSet<&str> = BTreeSet::new();
    for e in edges {
        nodes.insert(&e.from);
        nodes.insert(&e.to);
    }
    let index: BTreeMap<&str, usize> = nodes.iter().enumerate().map(|(i, n)| (*n, i)).collect();
    let names: Vec<&str> = nodes.into_iter().collect();
    let n = names.len();
    let mut fwd = vec![Vec::new(); n];
    let mut rev = vec![Vec::new(); n];
    for e in edges {
        let (a, b) = (index[e.from.as_str()], index[e.to.as_str()]);
        fwd[a].push(b);
        rev[b].push(a);
    }

    // Kosaraju, iteratively: finish order on the forward graph, then
    // component sweep on the transpose.
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    for start in 0..n {
        if seen[start] {
            continue;
        }
        let mut stack = vec![(start, 0usize)];
        seen[start] = true;
        while let Some(&mut (v, ref mut next)) = stack.last_mut() {
            if *next < fwd[v].len() {
                let w = fwd[v][*next];
                *next += 1;
                if !seen[w] {
                    seen[w] = true;
                    stack.push((w, 0));
                }
            } else {
                order.push(v);
                stack.pop();
            }
        }
    }
    let mut comp = vec![usize::MAX; n];
    let mut ncomp = 0usize;
    for &start in order.iter().rev() {
        if comp[start] != usize::MAX {
            continue;
        }
        let mut stack = vec![start];
        comp[start] = ncomp;
        while let Some(v) = stack.pop() {
            for &w in &rev[v] {
                if comp[w] == usize::MAX {
                    comp[w] = ncomp;
                    stack.push(w);
                }
            }
        }
        ncomp += 1;
    }

    let mut findings = Vec::new();
    for c in 0..ncomp {
        let members: Vec<usize> = (0..n).filter(|&v| comp[v] == c).collect();
        if members.len() < 2 {
            continue;
        }
        let mut cycle_edges: Vec<&LockEdge> = edges
            .iter()
            .filter(|e| comp[index[e.from.as_str()]] == c && comp[index[e.to.as_str()]] == c)
            .collect();
        cycle_edges.sort_by(|a, b| (&a.file, a.line, a.col).cmp(&(&b.file, b.line, b.col)));
        let witness = cycle_edges[0];
        let chains: Vec<String> = cycle_edges
            .iter()
            .map(|e| {
                format!("`{}` → `{}` at {}:{} (in `{}`)", e.from, e.to, e.file, e.line, e.func)
            })
            .collect();
        let locks: Vec<&str> = members.iter().map(|&v| names[v]).collect();
        findings.push(Finding {
            rule: RuleId::LockOrderInversion,
            file: witness.file.clone(),
            line: witness.line,
            col: witness.col,
            message: format!(
                "lock-order inversion among {{{}}}: {}",
                locks.join(", "),
                chains.join("; ")
            ),
        });
    }
    findings
}

/// Parses the documented lock hierarchy out of ARCHITECTURE.md: `A -> B`
/// lines between `<!-- lock-hierarchy:begin -->` and
/// `<!-- lock-hierarchy:end -->`. `None` when the markers are missing.
pub fn documented_edges(doc: &str) -> Option<BTreeSet<(String, String)>> {
    let begin = doc.find("<!-- lock-hierarchy:begin -->")?;
    let end = doc[begin..].find("<!-- lock-hierarchy:end -->")? + begin;
    let mut edges = BTreeSet::new();
    for line in doc[begin..end].lines() {
        let line = line.trim();
        if let Some((from, to)) = line.split_once("->") {
            let (from, to) = (from.trim(), to.trim());
            if !from.is_empty() && !to.is_empty() && !from.starts_with('<') {
                edges.insert((from.to_string(), to.to_string()));
            }
        }
    }
    Some(edges)
}

/// Renders the lock-order graph as deterministic Graphviz DOT.
pub fn to_dot(edges: &[LockEdge]) -> String {
    let mut sorted: Vec<&LockEdge> = edges.iter().collect();
    sorted.sort_by(|a, b| (&a.from, &a.to).cmp(&(&b.from, &b.to)));
    let mut out = String::from("digraph lock_order {\n  rankdir=LR;\n");
    for e in sorted {
        out.push_str(&format!(
            "  \"{}\" -> \"{}\" [label=\"{}:{}\"];\n",
            e.from, e.to, e.file, e.line
        ));
    }
    out.push_str("}\n");
    out
}
