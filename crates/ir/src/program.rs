//! Whole-program containers: source map, program building, call sites.
//!
//! A [`Program`] corresponds to the paper's "application": many source files
//! compiled into separate modules, analysed per-function, with the direct
//! call sites that authorship lookup and peer-definition pruning ask about
//! collected on demand from [`Program::direct_calls`].

use std::{
    cell::RefCell,
    collections::{
        HashMap,
        HashSet, //
    },
    hash::{
        DefaultHasher,
        Hash,
        Hasher, //
    },
    sync::Arc,
};

use vc_obs::hash::{
    fnv1a,
    FNV_SEED, //
};

use crate::{
    ast::{
        FuncDef,
        Item, //
    },
    ir::{
        Callee,
        ExternFunc,
        FuncId,
        Function,
        Inst,
        TempId, //
    },
    lower::{
        lower_function,
        name_key,
        LowerCtx,
        LowerError, //
    },
    parser::{
        parse_with_recovery,
        ParseError, //
    },
    span::{
        FileId,
        Span, //
    },
    types::{
        StructLayout,
        Type,
        TypeTable, //
    },
};

/// A source file registered in the [`SourceMap`].
#[derive(Clone, Debug)]
pub struct SourceFile {
    /// Path-like file name (used as the key into the VCS history).
    pub name: String,
    /// The file's id.
    pub id: FileId,
    /// Raw content.
    pub content: String,
}

/// Maps [`FileId`]s to file names and contents.
#[derive(Clone, Debug, Default)]
pub struct SourceMap {
    files: Vec<SourceFile>,
}

impl SourceMap {
    /// Registers a file and returns its id.
    pub fn add(&mut self, name: String, content: String) -> FileId {
        let id = FileId(self.files.len() as u32);
        self.files.push(SourceFile { name, id, content });
        id
    }

    /// Looks up a file by id.
    pub fn file(&self, id: FileId) -> Option<&SourceFile> {
        self.files.get(id.0 as usize)
    }

    /// The name of a file, or `"<synthetic>"`.
    pub fn name(&self, id: FileId) -> &str {
        self.file(id)
            .map(|f| f.name.as_str())
            .unwrap_or("<synthetic>")
    }

    /// Number of registered files.
    pub fn len(&self) -> usize {
        self.files.len()
    }

    /// Whether no files are registered.
    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Iterates over all files.
    pub fn iter(&self) -> impl Iterator<Item = &SourceFile> {
        self.files.iter()
    }
}

/// An error raised while building a program.
#[derive(Clone, Debug)]
pub enum BuildError {
    /// A parse failure, function-granular where recovery could isolate it:
    /// `function: Some(..)` means only that item was dropped (or survived
    /// with poisoned statements); `None` means the whole file was lost.
    Parse {
        /// The offending file.
        file: String,
        /// The function the failure was attributed to, when recovery could
        /// isolate it to one item.
        function: Option<String>,
        /// The underlying error.
        error: ParseError,
    },
    /// A function failed to lower.
    Lower {
        /// The offending file.
        file: String,
        /// The offending function.
        function: String,
        /// The underlying error.
        error: LowerError,
    },
}

impl BuildError {
    /// The file the error names.
    pub fn file(&self) -> &str {
        match self {
            BuildError::Parse { file, .. } | BuildError::Lower { file, .. } => file,
        }
    }

    /// The function the error is scoped to, if it is function-granular.
    pub fn function(&self) -> Option<&str> {
        match self {
            BuildError::Parse { function, .. } => function.as_deref(),
            BuildError::Lower { function, .. } => Some(function),
        }
    }
}

impl std::fmt::Display for BuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BuildError::Parse { file, error, .. } => write!(f, "{file}: {error}"),
            BuildError::Lower { file, error, .. } => write!(f, "{file}: {error}"),
        }
    }
}

impl std::error::Error for BuildError {}

/// Aggregate statistics from one [`Program::build_recovering`] run; mirrored
/// into the `recover.*` counters by `vcheck`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoverStats {
    /// Lexical diagnostics collected across all files.
    pub lex_errors: u64,
    /// Parse diagnostics collected across all files.
    pub parse_errors: u64,
    /// Poisoned [`crate::ast::StmtKind::Error`] regions in surviving
    /// functions.
    pub poisoned_stmts: u64,
    /// Top-level items dropped from files that otherwise survived.
    pub functions_dropped: u64,
    /// Files whose recovery salvaged nothing.
    pub files_dropped: u64,
}

impl RecoverStats {
    /// Accumulates another file's stats into this aggregate.
    pub fn absorb(&mut self, other: RecoverStats) {
        self.lex_errors += other.lex_errors;
        self.parse_errors += other.parse_errors;
        self.poisoned_stmts += other.poisoned_stmts;
        self.functions_dropped += other.functions_dropped;
        self.files_dropped += other.files_dropped;
    }
}

/// One top-level declaration of a file, as pass 1 of the build reads it.
#[derive(Clone, Debug)]
enum Decl {
    Struct(StructLayout),
    Global(String, Type),
    /// A function definition's name and return type.
    Func(String, Type),
    Proto(ExternFunc),
}

/// What lowering one file produced.
#[derive(Debug)]
struct Lowered {
    funcs: Vec<Arc<Function>>,
    /// One [`BuildError::Lower`] per function that failed to lower.
    errors: Vec<BuildError>,
    /// The [`name_key`]s of every declaration its lowering looked up,
    /// misses included, sorted.
    consulted: Vec<u64>,
}

/// The recovered parse of one source file, minus its function bodies:
/// the function-granular parse errors in report order, the file's
/// [`RecoverStats`] contribution, and its declarations.
#[derive(Debug)]
struct Summary {
    errors: Vec<BuildError>,
    stats: RecoverStats,
    decls: Vec<Decl>,
}

/// One cached file: its parse summary and its lowered functions. The AST
/// itself is not kept.
#[derive(Debug)]
struct CachedFile {
    summary: Summary,
    lowered: Lowered,
}

/// A cache of lowered files, for callers that rebuild the same tree
/// repeatedly with small edits (the `vcheck serve` warm path). Keys bind
/// the file's position, name and content plus the preprocessor defines,
/// so a renamed, reordered, or edited file always misses. A cached file
/// is reused only while no declaration its lowering looked up changed
/// (see [`Program::build_recovering_cached`]). Every build sweeps entries
/// for files no longer in the tree, bounding the cache at one entry per
/// current file.
#[derive(Debug, Default)]
pub struct ParseCache {
    entries: HashMap<u64, CachedFile>,
    /// The previous build's declaration environment: per [`name_key`], a
    /// hash of what the tree declares under that name. Every entry was
    /// lowered against it.
    env: HashMap<u64, u64>,
    hits: u64,
    misses: u64,
}

impl ParseCache {
    /// Cache key for one file: FNV-1a over position, name, content and
    /// defines, with `0xFF` field separators (no legal byte sequence
    /// collides across field boundaries).
    fn key(id: FileId, name: &str, src: &str, defines: &[String]) -> u64 {
        let fields = [&id.0.to_le_bytes()[..], name.as_bytes(), src.as_bytes()];
        let defines = defines.iter().map(|d| d.as_bytes());
        fields.into_iter().chain(defines).fold(FNV_SEED, fnv1a)
    }

    /// Files whose lowering was reused, across the cache's lifetime.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Files that had to be parsed and lowered (new, edited, or depending
    /// on a changed declaration), across the cache's lifetime.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Number of cached files.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drops every cached entry (quarantine: the next build is cold).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.env.clear();
    }
}

/// The per-file half of [`Program::build_recovering`]: parse with recovery,
/// fold the diagnostics into function-granular [`BuildError`]s plus a
/// [`RecoverStats`] contribution, and split the module into declarations
/// and function bodies. Pure in `(id, name, src)`.
fn recover_file(name: &str, id: FileId, src: &str) -> (Summary, Vec<FuncDef>) {
    let mut errors = Vec::new();
    let mut stats = RecoverStats::default();
    let rec = parse_with_recovery(id, src);
    stats.lex_errors += rec.lex_errors.len() as u64;
    stats.parse_errors += rec.diags.len() as u64;

    if rec.module.items.is_empty() && !(rec.diags.is_empty() && rec.lex_errors.is_empty()) {
        // Nothing salvaged: collapse every diagnostic into one file-level
        // failure, as before recovery existed.
        stats.files_dropped += 1;
        let error = rec
            .diags
            .into_iter()
            .next()
            .map(|d| d.error)
            .unwrap_or_else(|| {
                ParseError::from(
                    rec.lex_errors
                        .into_iter()
                        .next()
                        .expect("either a lex or a parse diagnostic exists"),
                )
            });
        errors.push(BuildError::Parse {
            file: name.to_string(),
            function: None,
            error,
        });
        let summary = Summary {
            errors,
            stats,
            decls: Vec::new(),
        };
        return (summary, Vec::new());
    }

    // One error per dropped item; for functions that survived with
    // poisoned regions, remember the first diagnostic per function.
    let mut poisoned_first: HashMap<String, ParseError> = HashMap::new();
    for d in rec.diags {
        if d.dropped_item {
            stats.functions_dropped += 1;
            errors.push(BuildError::Parse {
                file: name.to_string(),
                function: d.function,
                error: d.error,
            });
        } else {
            match d.function {
                Some(f) => {
                    poisoned_first.entry(f).or_insert(d.error);
                }
                None => errors.push(BuildError::Parse {
                    file: name.to_string(),
                    function: None,
                    error: d.error,
                }),
            }
        }
    }
    // Diagnostics attributed to a function whose item was dropped
    // afterwards stay covered by that item's single dropped error.
    let mut decls = Vec::with_capacity(rec.module.items.len());
    let mut bodies = Vec::new();
    for item in rec.module.items {
        match item {
            Item::Struct(s) => {
                let (field_names, field_types) =
                    s.fields.into_iter().map(|f| (f.name, f.ty)).unzip();
                decls.push(Decl::Struct(StructLayout {
                    name: s.name,
                    field_names,
                    field_types,
                    span: s.span,
                }));
            }
            Item::Global(g) => decls.push(Decl::Global(g.name, g.ty)),
            Item::FuncDecl(d) => decls.push(Decl::Proto(ExternFunc {
                name: d.name,
                ret_ty: d.ret,
                param_tys: d.params.into_iter().map(|p| p.ty).collect(),
                span: d.span,
                file: d.span.file,
            })),
            Item::Func(f) => {
                stats.poisoned_stmts += f.body.poisoned_count() as u64;
                if let Some(error) = poisoned_first.remove(&f.name) {
                    errors.push(BuildError::Parse {
                        file: name.to_string(),
                        function: Some(f.name.clone()),
                        error,
                    });
                }
                decls.push(Decl::Func(f.name.clone(), f.ret.clone()));
                bodies.push(f);
            }
        }
    }

    let summary = Summary {
        errors,
        stats,
        decls,
    };
    (summary, bodies)
}

/// Lowers one file's function bodies.
fn lower_file(name: &str, bodies: &[FuncDef], ctx: &LowerCtx<'_>) -> Lowered {
    let mut funcs = Vec::with_capacity(bodies.len());
    let mut errors = Vec::new();
    for f in bodies {
        match lower_function(ctx, f) {
            Ok(lowered) => funcs.push(Arc::new(lowered)),
            Err(error) => errors.push(BuildError::Lower {
                file: name.to_string(),
                function: f.name.clone(),
                error,
            }),
        }
    }
    Lowered {
        funcs,
        errors,
        consulted: ctx.take_consulted(),
    }
}

/// Hashes what the tree declares under each name, keyed by [`name_key`]:
/// the layout of a struct tag, the type of a global, the return type of a
/// function. A name used in several namespaces sums their hashes.
fn declaration_env(
    types: &TypeTable,
    globals: &HashMap<String, Type>,
    func_ret: &HashMap<&str, &Type>,
) -> HashMap<u64, u64> {
    fn hash_of(decl: impl Hash) -> u64 {
        let mut h = DefaultHasher::new();
        decl.hash(&mut h);
        h.finish()
    }
    let mut env = HashMap::with_capacity(func_ret.len() + globals.len() + types.len());
    let mut add = |name: &str, hash: u64| {
        let slot = env.entry(name_key(name)).or_insert(0u64);
        *slot = slot.wrapping_add(hash);
    };
    for l in types.iter() {
        add(&l.name, hash_of((0u8, &l.field_names, &l.field_types)));
    }
    for (name, ty) in globals {
        add(name, hash_of((1u8, ty)));
    }
    for (name, ty) in func_ret {
        add(name, hash_of((2u8, ty)));
    }
    env
}

/// A compiled program: all lowered functions plus program-wide tables.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// All lowered functions; [`FuncId`] indexes this vector.
    pub funcs: Vec<Arc<Function>>,
    /// Name → id index over `funcs` (first definition wins).
    func_index: HashMap<String, FuncId>,
    /// Functions declared but not defined in this program (library calls).
    pub extern_funcs: Vec<ExternFunc>,
    /// Global variables and their types.
    pub globals: HashMap<String, Type>,
    /// Struct layouts.
    pub types: TypeTable,
    /// The source map.
    pub source: SourceMap,
    /// FNV-1a over the preprocessor defines the program was built under
    /// (see [`Program::defines_hash`]).
    defines_hash: u64,
}

/// One direct call site of a function (see [`Program::direct_calls`]).
#[derive(Clone, Debug)]
pub struct CallSite {
    /// The calling function.
    pub caller: FuncId,
    /// Span of the call expression.
    pub span: Span,
    /// The temp receiving the return value, if any.
    pub dst: Option<TempId>,
}

impl Program {
    /// Parses and lowers a set of `(file name, source)` pairs under the given
    /// preprocessor configuration, for callers that need a clean tree: the
    /// [`build_recovering`](Self::build_recovering) program when that build
    /// reported no error, otherwise its first error.
    ///
    /// # Examples
    ///
    /// ```
    /// use vc_ir::program::Program;
    /// let prog = Program::build(&[("a.c", "int f(void) { return 1; }")], &[]).unwrap();
    /// assert_eq!(prog.funcs.len(), 1);
    /// assert!(Program::build(&[("a.c", "int f(void) { return $; }")], &[]).is_err());
    /// ```
    pub fn build(sources: &[(&str, &str)], defines: &[String]) -> Result<Program, BuildError> {
        let (prog, errors, _) = Self::build_recovering(sources, defines);
        errors.into_iter().next().map_or(Ok(prog), Err)
    }

    /// The fault-tolerant build: parsing recovers at statement and item
    /// granularity ([`parse_with_recovery`]), and a function that fails to
    /// lower is skipped with its error collected, instead of aborting the
    /// whole build. Every source file is still registered in the
    /// [`SourceMap`] (so file ids and report paths stay stable); one
    /// mangled function costs only itself.
    ///
    /// Returns the partial program, one [`BuildError`] per corrupted
    /// function (or per file when nothing in it was salvageable) in input
    /// order, and the [`RecoverStats`] funnel describing what recovery had
    /// to do.
    ///
    /// Error granularity per file:
    /// - recovery salvaged nothing → one file-level `Parse` error
    ///   (`function: None`);
    /// - a top-level item was dropped → one `Parse` error naming the item's
    ///   function when it could be guessed;
    /// - a function survived with poisoned statement regions → one `Parse`
    ///   error naming it (it still lowers, marked
    ///   [`recovered`](crate::ir::Function::recovered));
    /// - a surviving function fails to lower → one `Lower` error naming it.
    pub fn build_recovering(
        sources: &[(&str, &str)],
        defines: &[String],
    ) -> (Program, Vec<BuildError>, RecoverStats) {
        Self::build_recovering_cached(sources, defines, &mut ParseCache::default())
    }

    /// The one build: [`build_recovering`](Self::build_recovering) with a
    /// warm [`ParseCache`].
    ///
    /// Every file is parsed into declarations and function bodies unless
    /// the cache holds it (same position, name, content and defines). Pass
    /// 1 then collects structs, globals and signatures fresh from every
    /// file's declarations, and diffs that environment by name against the
    /// previous build's. A cached file keeps its lowered functions only if
    /// none of the names its lowering looked up changed; otherwise it is
    /// parsed and lowered again, as is every new file. The ASTs are dropped
    /// once every file is lowered; the cache never keeps them. The program
    /// concatenates the per-file functions in file order, so it is
    /// byte-for-byte the one a cold
    /// [`build_recovering`](Self::build_recovering) would produce.
    pub fn build_recovering_cached(
        sources: &[(&str, &str)],
        defines: &[String],
        cache: &mut ParseCache,
    ) -> (Program, Vec<BuildError>, RecoverStats) {
        let mut source = SourceMap::default();
        let mut errors = Vec::new();
        let mut stats = RecoverStats::default();
        // Kept apart from `work` so pass 1 can borrow their declarations
        // while files are lowered.
        let mut summaries = Vec::with_capacity(sources.len());
        // Per file: its key, its cached lowering while that is a candidate
        // for reuse, and its function bodies when it has to be lowered.
        let mut work = Vec::with_capacity(sources.len());
        for (name, src) in sources {
            let key = ParseCache::key(FileId(source.len() as u32), name, src, defines);
            let id = source.add((*name).to_string(), (*src).to_string());
            let (summary, lowered, bodies) = match cache.entries.remove(&key) {
                Some(c) => (c.summary, Some(c.lowered), Vec::new()),
                None => {
                    let (summary, bodies) = recover_file(name, id, src);
                    (summary, None, bodies)
                }
            };
            errors.extend(summary.errors.iter().cloned());
            stats.absorb(summary.stats);
            summaries.push(summary);
            work.push((key, lowered, bodies));
        }

        // Pass 1: collect structs, globals and every function signature.
        let mut types = TypeTable::new();
        let mut globals = HashMap::new();
        let mut func_ret: HashMap<&str, &Type> = HashMap::new();
        let mut defined: HashSet<&str> = HashSet::new();
        let mut protos: Vec<&ExternFunc> = Vec::new();
        for decl in summaries.iter().flat_map(|s| &s.decls) {
            match decl {
                Decl::Struct(layout) => types.insert(layout.clone()),
                Decl::Global(name, ty) => {
                    globals.insert(name.clone(), ty.clone());
                }
                Decl::Func(name, ret) => {
                    func_ret.insert(name, ret);
                    defined.insert(name);
                }
                Decl::Proto(p) => {
                    func_ret.insert(&p.name, &p.ret_ty);
                    protos.push(p);
                }
            }
        }
        // Prototypes for functions also defined in-program are not extern.
        let extern_funcs = protos
            .into_iter()
            .filter(|p| !defined.contains(p.name.as_str()))
            .cloned()
            .collect();

        // Invalidation: a cached file whose lowering consulted a name the
        // environment now declares differently is parsed and lowered again.
        let env = declaration_env(&types, &globals, &func_ret);
        if work.iter().any(|(_, lowered, _)| lowered.is_some()) {
            let changed: HashSet<u64> = env
                .iter()
                .filter(|(k, v)| cache.env.get(k) != Some(v))
                .map(|(k, _)| *k)
                .chain(cache.env.keys().filter(|k| !env.contains_key(k)).copied())
                .collect();
            for (i, ((_, lowered, bodies), (name, src))) in work.iter_mut().zip(sources).enumerate()
            {
                let stale = lowered
                    .as_ref()
                    .is_some_and(|l| l.consulted.iter().any(|k| changed.contains(k)));
                if stale {
                    *lowered = None;
                    *bodies = recover_file(name, FileId(i as u32), src).1;
                }
            }
        }

        // Pass 2: lower every file without a reusable lowering. The ASTs
        // are freed together once every file is lowered: freeing each one
        // right after its file scatters the next files' IR into the holes,
        // and a scan over such a program ran 20–35% slower.
        let ctx = LowerCtx {
            types: &types,
            func_ret: &func_ret,
            globals: &globals,
            defines,
            consulted: RefCell::default(),
        };
        let mut funcs = Vec::new();
        for ((_, lowered, bodies), (name, _)) in work.iter_mut().zip(sources) {
            if lowered.is_some() {
                cache.hits += 1;
            } else {
                cache.misses += 1;
                *lowered = Some(lower_file(name, bodies, &ctx));
            }
            let lowered = lowered.as_ref().expect("every file is lowered");
            funcs.extend(lowered.funcs.iter().cloned());
            errors.extend(lowered.errors.iter().cloned());
        }

        // Generational sweep: only files present in this build survive, so
        // a long-lived cache cannot grow past the current tree.
        cache.entries = work
            .into_iter()
            .zip(summaries)
            .map(|((key, lowered, _), summary)| {
                let lowered = lowered.expect("every file is lowered");
                (key, CachedFile { summary, lowered })
            })
            .collect();
        cache.env = env;

        let mut func_index = HashMap::new();
        for (i, f) in funcs.iter().enumerate() {
            func_index.entry(f.name.clone()).or_insert(FuncId(i as u32));
        }
        let prog = Program {
            funcs,
            func_index,
            extern_funcs,
            globals,
            types,
            source,
            defines_hash: defines.iter().fold(FNV_SEED, |h, d| fnv1a(h, d.as_bytes())),
        };
        (prog, errors, stats)
    }

    /// FNV-1a over the preprocessor defines the program was built under,
    /// in order: the defines change the program but not its source bytes,
    /// so a journal bound to the program folds this in. `FNV_SEED` for a
    /// build without defines.
    pub fn defines_hash(&self) -> u64 {
        self.defines_hash
    }

    /// Looks up a function id by name (first definition wins).
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.func_index.get(name).copied()
    }

    /// Looks up a function by name.
    pub fn func_by_name(&self, name: &str) -> Option<&Function> {
        self.func_id(name).map(|id| self.func(id))
    }

    /// The function with the given id.
    pub fn func(&self, id: FuncId) -> &Function {
        &self.funcs[id.0 as usize]
    }

    /// Whether `name` is defined in this program (vs. a library call).
    pub fn defines_function(&self, name: &str) -> bool {
        self.func_by_name(name).is_some()
    }

    /// An extern (declared-only) function by name.
    pub fn extern_by_name(&self, name: &str) -> Option<&ExternFunc> {
        self.extern_funcs.iter().find(|f| f.name == name)
    }

    /// Every direct call in the program with its callee's name, in caller
    /// order; the names are borrowed from the program.
    pub fn direct_calls(&self) -> impl Iterator<Item = (&str, CallSite)> + '_ {
        self.funcs.iter().enumerate().flat_map(|(fi, f)| {
            f.blocks
                .iter()
                .flat_map(|bb| &bb.insts)
                .filter_map(move |inst| match inst {
                    Inst::Call {
                        dst,
                        callee: Callee::Direct(name),
                        span,
                        ..
                    } => Some((
                        name.as_str(),
                        CallSite {
                            caller: FuncId(fi as u32),
                            span: *span,
                            dst: *dst,
                        },
                    )),
                    _ => None,
                })
        })
    }

    /// Total number of IR instructions across all functions.
    pub fn inst_count(&self) -> usize {
        self.funcs.iter().map(|f| f.inst_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_multi_file_program() {
        let prog = Program::build(
            &[
                ("a.c", "int helper(int x) { return x + 1; }"),
                (
                    "b.c",
                    "int helper(int x);\nint main(void) { return helper(2); }",
                ),
            ],
            &[],
        )
        .unwrap();
        assert_eq!(prog.funcs.len(), 2);
        assert!(prog.defines_function("helper"));
        // The prototype in b.c must not count as extern: helper is defined.
        assert!(prog.extern_by_name("helper").is_none());
    }

    #[test]
    fn recovering_build_skips_malformed_files_and_reports_spans() {
        let (prog, errors, _) = Program::build_recovering(
            &[
                ("good.c", "int ok(void) { return 1; }"),
                ("bad.c", "int broken(void) { int x = 1;"),
                ("also_good.c", "int fine(void) { return 2; }"),
            ],
            &[],
        );
        assert_eq!(prog.funcs.len(), 2);
        assert!(prog.defines_function("ok"));
        assert!(prog.defines_function("fine"));
        assert!(!prog.defines_function("broken"));
        assert_eq!(errors.len(), 1);
        // The error names the file and carries a line:col position.
        let msg = errors[0].to_string();
        assert!(msg.starts_with("bad.c:"), "{msg}");
        assert!(matches!(&errors[0], BuildError::Parse { .. }));
        // All three files keep their SourceMap slots.
        assert_eq!(prog.source.len(), 3);
    }

    #[test]
    fn recovering_build_keeps_healthy_functions_of_a_corrupted_file() {
        let (prog, errors, stats) = Program::build_recovering(
            &[(
                "mixed.c",
                "int ok(void) { return 1; }\n\
                 int poisoned(void) { int x = $$; return 0; }\n\
                 garbled dropped_fn(void) { return 2; }\n\
                 int also_ok(void) { return 3; }\n",
            )],
            &[],
        );
        assert!(prog.defines_function("ok"));
        assert!(prog.defines_function("also_ok"));
        assert!(prog.defines_function("poisoned"));
        assert!(!prog.defines_function("dropped_fn"));
        assert!(prog.func_by_name("poisoned").unwrap().recovered);
        assert!(!prog.func_by_name("ok").unwrap().recovered);
        // Exactly one error per corrupted function, none for healthy ones.
        let funcs: Vec<_> = errors.iter().map(|e| e.function()).collect();
        assert_eq!(funcs, vec![Some("dropped_fn"), Some("poisoned")]);
        assert_eq!(stats.functions_dropped, 1);
        assert_eq!(stats.poisoned_stmts, 1);
        assert_eq!(stats.files_dropped, 0);
        assert_eq!(stats.lex_errors, 2);
        assert_eq!(stats.parse_errors, 2);
    }

    #[test]
    fn recovering_build_collapses_a_hopeless_file_to_one_error() {
        let (prog, errors, stats) = Program::build_recovering(
            &[
                ("junk.c", "@@ %% ?? garbage ## $$\n"),
                ("good.c", "int fine(void) { return 1; }"),
            ],
            &[],
        );
        assert_eq!(prog.funcs.len(), 1);
        assert_eq!(errors.len(), 1);
        assert_eq!(errors[0].file(), "junk.c");
        assert_eq!(errors[0].function(), None);
        assert_eq!(stats.files_dropped, 1);
        assert_eq!(stats.functions_dropped, 0);
    }

    #[test]
    fn recovering_build_is_clean_on_clean_input() {
        let sources = [("a.c", "int f(void) { if (1) { return 1; } return 0; }")];
        let (prog, errors, stats) = Program::build_recovering(&sources, &[]);
        assert!(errors.is_empty());
        assert_eq!(stats, RecoverStats::default());
        assert_eq!(prog.funcs.len(), 1);
        assert!(!prog.funcs[0].recovered);
    }

    #[test]
    fn build_fails_with_the_first_recovering_error() {
        let sources = [
            ("a.c", "int f(void) { return 1; }"),
            (
                "b.c",
                "int g(void) { return $; }\nint h(void) { return 1 2; }",
            ),
        ];
        let (prog, errors, _) = Program::build_recovering(&sources, &[]);
        assert_eq!(prog.funcs.len(), 3);
        assert_eq!(errors.len(), 2);
        let first = Program::build(&sources, &[]).unwrap_err();
        assert_eq!(first.to_string(), errors[0].to_string());
        assert_eq!(
            first.to_string(),
            "b.c: parse error at 1:22: expected an expression, found invalid token"
        );
        assert!(Program::build(&sources[..1], &[]).is_ok());
    }

    #[test]
    fn extern_prototypes_are_recorded() {
        let prog = Program::build(
            &[(
                "a.c",
                "int printf(char *fmt);\nvoid f(void) { printf(\"x\"); }",
            )],
            &[],
        )
        .unwrap();
        assert!(prog.extern_by_name("printf").is_some());
        assert!(!prog.defines_function("printf"));
    }

    #[test]
    fn direct_calls_lists_every_site_in_caller_order() {
        let prog = Program::build(
            &[(
                "a.c",
                "int g(void) { return 1; }\n\
                 void f(void) { int a = g(); int b = g(); use(a); use(b); }\n\
                 void h(void) { g(); }",
            )],
            &[],
        )
        .unwrap();
        let calls: Vec<(&str, &str)> = prog
            .direct_calls()
            .map(|(callee, site)| (callee, prog.func(site.caller).name.as_str()))
            .collect();
        assert_eq!(
            calls.iter().filter(|(callee, _)| *callee == "use").count(),
            2
        );
        let callers: Vec<&str> = calls
            .iter()
            .filter(|(callee, _)| *callee == "g")
            .map(|(_, caller)| *caller)
            .collect();
        assert_eq!(callers, vec!["f", "f", "h"]);
    }

    #[test]
    fn disabled_config_skips_statements() {
        let src = "void f(void) {\nint x = 1;\n#ifdef FEATURE\nuse(x);\n#endif\n}";
        let without = Program::build(&[("a.c", src)], &[]).unwrap();
        let with = Program::build(&[("a.c", src)], &["FEATURE".into()]).unwrap();
        let f_without = without.func_by_name("f").unwrap();
        let f_with = with.func_by_name("f").unwrap();
        assert!(f_with.inst_count() > f_without.inst_count());
        // Either way the guarded mention of `x` is recorded.
        assert!(f_without.guarded_mentions.contains("x"));
        assert!(f_with.guarded_mentions.contains("x"));
    }

    #[test]
    fn struct_fields_resolve_across_files() {
        let prog = Program::build(
            &[
                ("types.c", "struct ctx { int mode; char *host; };"),
                ("use.c", "void f(struct ctx *c) { c->mode = 1; }"),
            ],
            &[],
        )
        .unwrap();
        assert_eq!(prog.types.len(), 1);
        assert_eq!(prog.funcs.len(), 1);
    }

    /// Sources mixing healthy, poisoned, and hopeless files — every path
    /// through `recover_file` — used to prove cached rebuilds are inert.
    const CACHE_SOURCES: &[(&str, &str)] = &[
        (
            "good.c",
            "struct s { int a; char *b; };\nint g;\nint ext(int x);\n\
             int fine(struct s *p) { ext(g); p->b = 0; return 1; }\n",
        ),
        (
            "mixed.c",
            "int ok(void) { return 1; }\n\
             int poisoned(void) { int x = $$; return 0; }\n\
             garbled dropped_fn(void) { return 2; }\n",
        ),
        ("junk.c", "@@ %% ?? garbage ## $$\n"),
    ];

    #[test]
    fn cached_rebuild_is_byte_identical_to_cold() {
        let text = |(prog, errors, stats): (Program, Vec<BuildError>, RecoverStats)| {
            crate::testing::build_text(&prog, &errors, &stats)
        };
        let cold = text(Program::build_recovering(CACHE_SOURCES, &[]));
        let mut cache = ParseCache::default();
        let first = text(Program::build_recovering_cached(
            CACHE_SOURCES,
            &[],
            &mut cache,
        ));
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 3);
        let warm = text(Program::build_recovering_cached(
            CACHE_SOURCES,
            &[],
            &mut cache,
        ));
        assert_eq!(cache.hits(), 3, "second build reuses every file");
        assert!(
            cold.contains("func poisoned") && cold.contains("$ret_ext") && cold.contains("junk.c")
        );
        assert_eq!(first, cold);
        assert_eq!(warm, cold);
    }

    #[test]
    fn cache_misses_on_edit_and_sweeps_removed_files() {
        let mut cache = ParseCache::default();
        let _ = Program::build_recovering_cached(CACHE_SOURCES, &[], &mut cache);
        assert_eq!(cache.len(), 3);
        // Edit one file: that file misses, the others hit.
        let edited: Vec<(&str, &str)> = vec![
            ("good.c", "int fine(void) { return 2; }\n"),
            CACHE_SOURCES[1],
            CACHE_SOURCES[2],
        ];
        let (prog, _, _) = Program::build_recovering_cached(&edited, &[], &mut cache);
        assert_eq!(cache.hits(), 2);
        assert_eq!(cache.misses(), 4);
        assert!(prog.defines_function("fine"));
        // Drop two files: the sweep forgets them.
        let shrunk: Vec<(&str, &str)> = vec![CACHE_SOURCES[0]];
        let _ = Program::build_recovering_cached(&shrunk, &[], &mut cache);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
    }

    #[test]
    fn cache_key_binds_file_position() {
        // The same (name, content) at a different FileId must miss: spans
        // inside the cached module are bound to the original id.
        let mut cache = ParseCache::default();
        let _ = Program::build_recovering_cached(CACHE_SOURCES, &[], &mut cache);
        let reordered: Vec<(&str, &str)> =
            vec![CACHE_SOURCES[1], CACHE_SOURCES[0], CACHE_SOURCES[2]];
        let (prog, _, _) = Program::build_recovering_cached(&reordered, &[], &mut cache);
        assert_eq!(cache.hits(), 1, "only junk.c kept its position");
        let ok = prog.func_by_name("ok").unwrap();
        assert_eq!(prog.source.name(ok.file), "mixed.c");
    }
}
