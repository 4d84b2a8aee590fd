//! The workspace symbol table: structs and their (lock-typed) fields,
//! functions keyed for call resolution, statics and type aliases.
//!
//! Lock identity is resolved to a **canonical field path**: every
//! `Mutex<T>` / `RwLock<T>` type is keyed by its normalized type text, and
//! displayed as the struct field that owns it (`Metrics.inner`,
//! `QueryProcessor.cache`) or the static's name. When several fields share a lock
//! type they are merged into one node — conservative for deadlock
//! detection, since a `&Mutex<T>` parameter is almost always a borrow of
//! the owning field. Owned fields win the naming contest over `&`-typed
//! borrows so graphs read in terms of the owning struct.

use std::collections::BTreeMap;

use crate::parse::{FnItem, Item, ParsedFile};

/// A struct's named fields, `field name → raw type text`.
#[derive(Debug, Default)]
pub struct StructInfo {
    /// Field name → space-joined type text.
    pub fields: BTreeMap<String, String>,
}

/// One function in the workspace.
pub struct FnRef<'a> {
    /// Index into [`Workspace::paths`].
    pub file: usize,
    /// The parsed item.
    pub item: &'a FnItem,
}

/// Symbols for a whole workspace (or a single file, for fixtures).
pub struct Workspace<'a> {
    /// Workspace-relative paths, indexed by file id.
    pub paths: Vec<String>,
    /// Every parsed `fn`, indexed by function id.
    pub fns: Vec<FnRef<'a>>,
    /// Struct name → fields.
    pub structs: BTreeMap<String, StructInfo>,
    /// Static name → raw type text.
    pub statics: BTreeMap<String, String>,
    /// Type alias name → raw aliased type text.
    pub aliases: BTreeMap<String, String>,
    /// `(impl type, method name)` → function id.
    pub methods: BTreeMap<(String, String), usize>,
    /// Free function name → function ids (workspace-wide).
    pub free_fns: BTreeMap<String, Vec<usize>>,
    /// `(file id, free fn name)` → function id.
    pub free_in_file: BTreeMap<(usize, String), usize>,
    /// Module name (file stem; `mod.rs` → parent dir) → file id.
    pub modules: BTreeMap<String, usize>,
    /// Normalized lock type (`Mutex<T>` / `RwLock<T>`) → canonical display.
    pub lock_names: BTreeMap<String, String>,
}

impl<'a> Workspace<'a> {
    /// Builds the symbol table over `(path, parsed)` pairs.
    pub fn build(files: &[(String, &'a ParsedFile)]) -> Workspace<'a> {
        let mut ws = Workspace {
            paths: files.iter().map(|(p, _)| p.clone()).collect(),
            fns: Vec::new(),
            structs: BTreeMap::new(),
            statics: BTreeMap::new(),
            aliases: BTreeMap::new(),
            methods: BTreeMap::new(),
            free_fns: BTreeMap::new(),
            free_in_file: BTreeMap::new(),
            modules: BTreeMap::new(),
            lock_names: BTreeMap::new(),
        };
        for (file, (path, parsed)) in files.iter().enumerate() {
            ws.modules.entry(module_name(path)).or_insert(file);
            for item in &parsed.items {
                match item {
                    Item::Struct(s) => {
                        let info = ws.structs.entry(s.name.clone()).or_default();
                        for f in &s.fields {
                            info.fields.entry(f.name.clone()).or_insert_with(|| f.ty.clone());
                        }
                    }
                    Item::Static(s) => {
                        ws.statics.entry(s.name.clone()).or_insert_with(|| s.ty.clone());
                    }
                    Item::TypeAlias(t) => {
                        ws.aliases.entry(t.name.clone()).or_insert_with(|| t.ty.clone());
                    }
                    Item::Fn(f) => {
                        let id = ws.fns.len();
                        ws.fns.push(FnRef { file, item: f });
                        match &f.self_ty {
                            Some(ty) => {
                                ws.methods.entry((ty.clone(), f.name.clone())).or_insert(id);
                            }
                            None => {
                                ws.free_fns.entry(f.name.clone()).or_default().push(id);
                                ws.free_in_file.entry((file, f.name.clone())).or_insert(id);
                            }
                        }
                    }
                }
            }
        }
        ws.name_locks();
        ws
    }

    /// Chooses the canonical display name for every lock type seen in a
    /// struct field or static: owned fields first, then `&`-typed borrows,
    /// lexicographic within a class — deterministic across runs.
    fn name_locks(&mut self) {
        let mut candidates: BTreeMap<String, Vec<(bool, String)>> = BTreeMap::new();
        for (sname, info) in &self.structs {
            for (fname, raw) in &info.fields {
                let norm = normalize_type(raw, Some(sname));
                if let Some(lock) = self.lock_key(&norm) {
                    let is_ref = raw.trim_start().starts_with('&');
                    candidates.entry(lock).or_default().push((is_ref, format!("{sname}.{fname}")));
                }
            }
        }
        for (name, raw) in &self.statics {
            let norm = normalize_type(raw, None);
            if let Some(lock) = self.lock_key(&norm) {
                candidates.entry(lock).or_default().push((false, name.clone()));
            }
        }
        for (lock, mut names) in candidates {
            names.sort();
            if let Some((_, display)) = names.first() {
                self.lock_names.insert(lock, display.clone());
            }
        }
    }

    /// The identity key of the lock inside a normalized type, if any:
    /// `Mutex<...>`/`RwLock<...>` with the payload collapsed to its base
    /// workspace struct (resolving aliases) so `Mutex<FieldCache>`, a
    /// `Mutex<Alias>` of it and `Mutex<Self>` inside the impl are one
    /// node. Payloads naming no workspace struct key by their full text.
    pub fn lock_key(&self, norm_ty: &str) -> Option<String> {
        let extracted = lock_inner(norm_ty)?;
        let open = extracted.find('<')?;
        let marker = &extracted[..open];
        let payload = &extracted[open + 1..extracted.len() - 1];
        match self.struct_in_type(payload) {
            Some(s) => Some(format!("{marker}<{s}>")),
            None => Some(extracted),
        }
    }

    /// Canonical display for a normalized lock type (falls back to the
    /// type itself when no field owns it).
    pub fn lock_display(&self, lock_ty: &str) -> String {
        self.lock_names.get(lock_ty).cloned().unwrap_or_else(|| lock_ty.to_string())
    }

    /// The first identifier in `norm_ty` that names a workspace struct,
    /// resolving type aliases up to a small depth. This is how receiver
    /// types (`Arc<Metrics>`, `&'a ShardQueue`) map back to structs.
    pub fn struct_in_type(&self, norm_ty: &str) -> Option<&str> {
        self.struct_in_type_depth(norm_ty, 4)
    }

    fn struct_in_type_depth(&self, norm_ty: &str, depth: usize) -> Option<&str> {
        for ident in idents_of(norm_ty) {
            if self.structs.contains_key(ident) {
                return self.structs.get_key_value(ident).map(|(k, _)| k.as_str());
            }
            if depth > 0 {
                if let Some(aliased) = self.aliases.get(ident) {
                    let norm = normalize_type(aliased, None);
                    if let Some(s) = self.struct_in_type_depth(&norm, depth - 1) {
                        // Re-borrow through self to satisfy the borrow checker.
                        return self.structs.get_key_value(s).map(|(k, _)| k.as_str());
                    }
                }
            }
        }
        None
    }

    /// If `struct.field` holds a lock, its canonical display name.
    pub fn field_lock(&self, struct_name: &str, field: &str) -> Option<String> {
        let raw = self.structs.get(struct_name)?.fields.get(field)?;
        let norm = normalize_type(raw, Some(struct_name));
        self.lock_key(&norm).map(|l| self.lock_display(&l))
    }

    /// If the type text contains a lock, its canonical display name.
    pub fn lock_in_type(&self, raw_ty: &str, self_ty: Option<&str>) -> Option<String> {
        let norm = normalize_type(raw_ty, self_ty);
        self.lock_key(&norm).map(|l| self.lock_display(&l))
    }
}

/// The module a file contributes for `module::fn(...)` resolution: its
/// stem, or the parent directory for `mod.rs`.
pub fn module_name(path: &str) -> String {
    let parts: Vec<&str> = path.rsplitn(3, '/').collect();
    let stem = parts[0].strip_suffix(".rs").unwrap_or(parts[0]);
    if stem == "mod" && parts.len() > 1 {
        parts[1].to_string()
    } else {
        stem.to_string()
    }
}

/// Normalizes a space-joined type text: drops references, lifetimes,
/// `mut`/`dyn`, collapses `path::To::Type` to `Type` and substitutes
/// `Self`, producing a compact comparable string (`Arc<Mutex<Inner>>`).
pub fn normalize_type(raw: &str, self_ty: Option<&str>) -> String {
    let toks: Vec<&str> = raw.split_whitespace().collect();
    let mut kept: Vec<&str> = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        let t = toks[i];
        if t == ":" && i + 1 < toks.len() && toks[i + 1] == ":" {
            // Path separator: the segment before it was a prefix.
            if kept.last().is_some_and(|k| is_ident_like(k)) {
                kept.pop();
            }
            i += 2;
            continue;
        }
        if t == "&" || t == "mut" || t == "dyn" || t.starts_with('\'') {
            i += 1;
            continue;
        }
        kept.push(t);
        i += 1;
    }
    let mut out = String::new();
    for t in kept {
        if t == "Self" {
            out.push_str(self_ty.unwrap_or("Self"));
        } else {
            out.push_str(t);
        }
    }
    out
}

/// Extracts the first balanced `Mutex<...>` / `RwLock<...>` from a
/// normalized type text.
pub fn lock_inner(norm: &str) -> Option<String> {
    for marker in ["Mutex<", "RwLock<"] {
        let mut from = 0;
        while let Some(rel) = norm[from..].find(marker) {
            let at = from + rel;
            // Reject mid-identifier matches like `FakeMutex<`.
            let preceded = norm[..at].chars().next_back().is_some_and(is_ident_char);
            if preceded {
                from = at + marker.len();
                continue;
            }
            let open = at + marker.len() - 1;
            let mut depth = 0i64;
            for (off, c) in norm[open..].char_indices() {
                match c {
                    '<' => depth += 1,
                    '>' => {
                        depth -= 1;
                        if depth == 0 {
                            return Some(norm[at..=open + off].to_string());
                        }
                    }
                    _ => {}
                }
            }
            return None; // unbalanced
        }
    }
    None
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

fn is_ident_like(s: &str) -> bool {
    !s.is_empty()
        && s.chars().all(is_ident_char)
        && !s.chars().next().is_some_and(|c| c.is_ascii_digit())
}

/// Iterates the identifier runs of a normalized type text.
fn idents_of(norm: &str) -> impl Iterator<Item = &str> {
    norm.split(|c: char| !is_ident_char(c))
        .filter(|s| !s.is_empty() && !s.chars().next().is_some_and(|c| c.is_ascii_digit()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_source;

    #[test]
    fn normalizes_paths_refs_and_self() {
        assert_eq!(normalize_type("& 'a std : : sync : : Mutex < Inner >", None), "Mutex<Inner>");
        assert_eq!(
            normalize_type("Arc < Mutex < cache : : BackCache > >", None),
            "Arc<Mutex<BackCache>>"
        );
        assert_eq!(normalize_type("& Mutex < Self >", Some("FieldCache")), "Mutex<FieldCache>");
    }

    #[test]
    fn lock_inner_finds_balanced_locks_only() {
        assert_eq!(lock_inner("Arc<Mutex<Vec<u32>>>").as_deref(), Some("Mutex<Vec<u32>>"));
        assert_eq!(lock_inner("RwLock<Db>").as_deref(), Some("RwLock<Db>"));
        assert_eq!(lock_inner("MutexGuard<u32>"), None);
        assert_eq!(lock_inner("FakeMutex<u32>"), None);
        assert_eq!(lock_inner("Condvar"), None);
    }

    #[test]
    fn canonical_names_prefer_owned_fields() {
        let parsed = parse_source(
            "pub struct Owner { pub cache: std::sync::Mutex<Cache> }\n\
             pub struct Borrower<'a> { pub cache: &'a std::sync::Mutex<Cache> }\n",
        );
        let files = vec![("crates/x/src/lib.rs".to_string(), &parsed)];
        let ws = Workspace::build(&files);
        assert_eq!(ws.lock_display("Mutex<Cache>"), "Owner.cache");
    }

    #[test]
    fn module_names_resolve_mod_rs_to_dir() {
        assert_eq!(module_name("crates/core/src/engine/plan.rs"), "plan");
        assert_eq!(module_name("crates/core/src/engine/mod.rs"), "engine");
        assert_eq!(module_name("src/lib.rs"), "lib");
    }
}
