//! The per-stub plan cache: content-addressed memoization of lowering
//! and optimization.
//!
//! Every pass except `demux-switch` reads only the stub it rewrites,
//! so the expensive part of the backend — lower, verify, optimize —
//! can be memoized per stub, keyed by content:
//!
//! * [`StubKey::pres_hash`] — [`flick_pres::stub_hash`], a structural
//!   digest of everything the lowerer reads for the stub;
//! * [`StubKey::enc_fp`] — the wire-encoding fingerprint;
//! * [`StubKey::pipe_fp`] — the pass-pipeline fingerprint (pass list,
//!   order, per-pass configuration, lowering options, budget).
//!
//! Entries are held in a bounded LRU in memory and, when a cache
//! directory is configured, mirrored to disk so warm state survives
//! across processes.
//!
//! ## Serialization and `PresId` portability
//!
//! A cached [`StubPlan`] refers back into the presentation through
//! `PresId`s, which are arena indices — meaningless in another
//! process (or after an unrelated edit shifts the arena).  Entries
//! therefore serialize `PresId`s as positions in a *structural
//! expansion* of the stub's slot trees: a preorder walk that records
//! every visit (repeats of shared nodes included) and cuts only at
//! cycles.  That sequence is a function of the stub's structure alone
//! — the same structure covered by `pres_hash` — so position `i`
//! denotes the structurally-same node in any presentation with the
//! same hash, regardless of how its arena shares subtrees.  Packed
//! layouts are not stored at all; they are recomputed from the
//! presentation on load, exactly as the verifier would check them.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::path::{Path, PathBuf};

use flick_pres::{PresC, PresId, PresNode, Stub, StubKind};

use crate::encoding::{Encoding, Order, StringWire, WirePrim};
use crate::layout::{pack, SizeClass};
use crate::mir::{MsgPlan, PlanNode, PlanResult, SlotPlan, SlotStorage, StubPlan};

/// Version header of serialized entries; bump when the format or the
/// MIR it describes changes shape.
const CACHE_FORMAT: &str = "flick-plan-cache v3";

/// Guard against pathological structural expansions (deeply shared
/// DAGs expand multiplicatively).  Hitting the cap makes the stub
/// uncacheable, never incorrect.
const MAX_EXPANSION: usize = 1 << 20;

/// The content key one cached stub plan is filed under.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct StubKey {
    /// Structural digest of the stub's PRES/MINT inputs.
    pub pres_hash: u64,
    /// Encoding fingerprint.
    pub enc_fp: u64,
    /// Pass-pipeline fingerprint.
    pub pipe_fp: u64,
}

impl StubKey {
    /// On-disk file name for this key (48 hex digits).
    #[must_use]
    pub fn file_name(&self) -> String {
        format!(
            "{:016x}{:016x}{:016x}.plan",
            self.pres_hash, self.enc_fp, self.pipe_fp
        )
    }
}

/// Cumulative counters over a cache's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from memory or disk.
    pub hits: u64,
    /// Lookups that fell through to a real compile.
    pub misses: u64,
    /// Entries dropped by the LRU bound.
    pub evictions: u64,
}

/// One stub's outcome in a compile, for `--explain-cache`.
#[derive(Clone, Debug)]
pub struct ExplainEntry {
    /// Stub name.
    pub stub: String,
    /// Whether the plan was served from cache.
    pub hit: bool,
    /// For hits: the tier (`memory`/`disk`).  For misses: why the key
    /// changed (`first compile`, `presentation changed`, …).
    pub detail: String,
}

/// What the cache did during one compile.
#[derive(Clone, Debug, Default)]
pub struct CacheReport {
    /// Stubs served from cache this compile.
    pub hits: u64,
    /// Stubs replanned this compile.
    pub misses: u64,
    /// Evictions triggered this compile.
    pub evictions: u64,
    /// Per-stub outcomes, in presentation order.
    pub entries: Vec<ExplainEntry>,
}

/// A bounded, optionally disk-backed store of optimized stub plans.
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    entries: HashMap<StubKey, String>,
    order: VecDeque<StubKey>,
    dir: Option<PathBuf>,
    stats: CacheStats,
    /// Last-seen key per stub name — the basis for explain reasons.
    prev: HashMap<String, StubKey>,
}

impl PlanCache {
    /// An in-memory cache with the default capacity.
    #[must_use]
    pub fn in_memory() -> PlanCache {
        PlanCache::with_capacity(1024)
    }

    /// An in-memory cache bounded to `capacity` entries.
    #[must_use]
    pub fn with_capacity(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            entries: HashMap::new(),
            order: VecDeque::new(),
            dir: None,
            stats: CacheStats::default(),
            prev: HashMap::new(),
        }
    }

    /// A disk-backed cache rooted at `dir` (created if absent).  The
    /// persisted key index is loaded so cross-process recompiles can
    /// still explain *why* a stub missed.
    ///
    /// # Errors
    /// Returns a message if the directory cannot be created.
    pub fn with_dir(dir: &Path) -> Result<PlanCache, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("cache dir {}: {e}", dir.display()))?;
        let mut cache = PlanCache::in_memory();
        if let Ok(index) = std::fs::read_to_string(dir.join("index.tsv")) {
            for line in index.lines() {
                let mut cols = line.split('\t');
                let (Some(name), Some(p), Some(e), Some(f)) =
                    (cols.next(), cols.next(), cols.next(), cols.next())
                else {
                    continue;
                };
                let (Ok(pres_hash), Ok(enc_fp), Ok(pipe_fp)) = (
                    u64::from_str_radix(p, 16),
                    u64::from_str_radix(e, 16),
                    u64::from_str_radix(f, 16),
                ) else {
                    continue;
                };
                cache.prev.insert(
                    name.to_string(),
                    StubKey {
                        pres_hash,
                        enc_fp,
                        pipe_fp,
                    },
                );
            }
        }
        cache.dir = Some(dir.to_path_buf());
        Ok(cache)
    }

    /// Lifetime counters.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Entries currently held in memory.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entries are held in memory.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Fetches the serialized entry for `key`, memory tier first, then
    /// disk (promoting into memory).  Does not touch hit/miss stats —
    /// the caller records the outcome once deserialization succeeds.
    pub(crate) fn fetch(&mut self, key: &StubKey) -> Option<(String, &'static str)> {
        if let Some(text) = self.entries.get(key) {
            let text = text.clone();
            self.touch(key);
            return Some((text, "memory"));
        }
        let path = self.dir.as_ref()?.join(key.file_name());
        let text = std::fs::read_to_string(path).ok()?;
        if !text.starts_with(CACHE_FORMAT) {
            return None;
        }
        self.insert_mem(*key, text.clone());
        Some((text, "disk"))
    }

    /// Stores a freshly compiled entry under `key` (and on disk, when
    /// a cache directory is configured — best effort).
    pub(crate) fn store(&mut self, key: StubKey, text: String) {
        if let Some(dir) = &self.dir {
            // A torn write must never be read back as a valid entry:
            // write to a temp name, then rename into place.
            let tmp = dir.join(format!("{}.tmp", key.file_name()));
            let path = dir.join(key.file_name());
            if std::fs::write(&tmp, &text).is_ok() {
                let _ = std::fs::rename(&tmp, &path);
            }
        }
        self.insert_mem(key, text);
    }

    pub(crate) fn record_hit(&mut self) {
        self.stats.hits += 1;
    }

    pub(crate) fn record_miss(&mut self) {
        self.stats.misses += 1;
    }

    /// Why `stub`'s lookup under `key` missed, given what we last saw.
    pub(crate) fn miss_reason(&self, stub: &str, key: &StubKey) -> String {
        match self.prev.get(stub) {
            None => "first compile".to_string(),
            Some(prev) if prev.pres_hash != key.pres_hash => "presentation changed".to_string(),
            Some(prev) if prev.enc_fp != key.enc_fp => "encoding changed".to_string(),
            Some(prev) if prev.pipe_fp != key.pipe_fp => format!(
                "pass pipeline changed (fingerprint {:016x} -> {:016x})",
                prev.pipe_fp, key.pipe_fp
            ),
            Some(_) => "evicted or cold cache".to_string(),
        }
    }

    /// Records `stub`'s key for the next compile's explain output.
    pub(crate) fn remember(&mut self, stub: &str, key: StubKey) {
        self.prev.insert(stub.to_string(), key);
    }

    /// Writes the key index to disk so a later process can explain
    /// misses.  No-op for purely in-memory caches; best effort.
    pub(crate) fn persist(&self) {
        let Some(dir) = &self.dir else { return };
        let mut names: Vec<&String> = self.prev.keys().collect();
        names.sort();
        let mut out = String::new();
        for name in names {
            let k = &self.prev[name];
            out.push_str(&format!(
                "{name}\t{:016x}\t{:016x}\t{:016x}\n",
                k.pres_hash, k.enc_fp, k.pipe_fp
            ));
        }
        let _ = std::fs::write(dir.join("index.tsv"), out);
    }

    fn insert_mem(&mut self, key: StubKey, text: String) {
        if self.entries.insert(key, text).is_none() {
            self.order.push_back(key);
        }
        while self.entries.len() > self.capacity {
            let Some(old) = self.order.pop_front() else {
                break;
            };
            if self.entries.remove(&old).is_some() {
                self.stats.evictions += 1;
            }
        }
    }

    fn touch(&mut self, key: &StubKey) {
        if let Some(pos) = self.order.iter().position(|k| k == key) {
            self.order.remove(pos);
            self.order.push_back(*key);
        }
    }
}

// ---------------------------------------------------------------------------
// PresId <-> structural position
// ---------------------------------------------------------------------------

/// The structural expansion of one stub's slot trees: `to_id[i]` is
/// the node at structural position `i`; `to_index` maps each node to
/// its *first* position.
struct PresIndex {
    to_id: Vec<PresId>,
    to_index: HashMap<PresId, u32>,
}

fn enumerate(presc: &PresC, stub: &Stub) -> Result<PresIndex, String> {
    let mut idx = PresIndex {
        to_id: Vec::new(),
        to_index: HashMap::new(),
    };
    let mut stack = Vec::new();
    for msg in [&stub.request, &stub.reply] {
        for slot in &msg.slots {
            expand(presc, slot.pres, &mut idx, &mut stack)?;
        }
    }
    Ok(idx)
}

fn expand(
    presc: &PresC,
    id: PresId,
    idx: &mut PresIndex,
    stack: &mut Vec<PresId>,
) -> Result<(), String> {
    // Cut only at cycles, not at sharing: repeats of a shared subtree
    // re-enumerate so positions depend on structure alone.
    if stack.contains(&id) {
        return Ok(());
    }
    if idx.to_id.len() >= MAX_EXPANSION {
        return Err(format!(
            "presentation expansion exceeds {MAX_EXPANSION} nodes"
        ));
    }
    let pos = idx.to_id.len() as u32;
    idx.to_id.push(id);
    idx.to_index.entry(id).or_insert(pos);
    stack.push(id);
    match presc.pres.get(id) {
        PresNode::Void
        | PresNode::Direct { .. }
        | PresNode::EnumMap { .. }
        | PresNode::TerminatedString { .. } => {}
        PresNode::FixedArray { elem, .. }
        | PresNode::OptPtr { elem, .. }
        | PresNode::CountedSeq { elem, .. }
        | PresNode::OptionalPtr { elem, .. } => expand(presc, *elem, idx, stack)?,
        PresNode::StructMap { fields, .. } => {
            for (_, f) in fields {
                expand(presc, *f, idx, stack)?;
            }
        }
        PresNode::UnionMap {
            discrim,
            cases,
            default,
            ..
        } => {
            expand(presc, *discrim, idx, stack)?;
            for (_, _, c) in cases {
                expand(presc, *c, idx, stack)?;
            }
            if let Some((_, d)) = default {
                expand(presc, *d, idx, stack)?;
            }
        }
    }
    stack.pop();
    Ok(())
}

// ---------------------------------------------------------------------------
// Token writer / reader
// ---------------------------------------------------------------------------

struct Writer {
    out: String,
}

impl Writer {
    fn new() -> Writer {
        Writer {
            out: format!("{CACHE_FORMAT}\n"),
        }
    }

    fn word(&mut self, tok: impl std::fmt::Display) {
        if !self.out.ends_with('\n') {
            self.out.push(' ');
        }
        self.out.push_str(&tok.to_string());
    }

    fn string(&mut self, s: &str) {
        let mut q = String::with_capacity(s.len() + 2);
        q.push('"');
        for c in s.chars() {
            match c {
                '"' => q.push_str("\\\""),
                '\\' => q.push_str("\\\\"),
                '\n' => q.push_str("\\n"),
                c => q.push(c),
            }
        }
        q.push('"');
        self.word(q);
    }

    fn opt_string(&mut self, s: Option<&str>) {
        match s {
            None => self.word("-"),
            Some(s) => self.string(s),
        }
    }

    fn opt_num(&mut self, v: Option<impl std::fmt::Display>) {
        match v {
            None => self.word("-"),
            Some(v) => self.word(v),
        }
    }

    fn boolean(&mut self, v: bool) {
        self.word(u8::from(v));
    }

    fn prim(&mut self, p: &WirePrim) {
        self.word(format!(
            "w{}:{}:{}:{}:{}:{}",
            p.size,
            p.slot,
            p.align,
            match p.order {
                Order::Big => 'B',
                Order::Little => 'L',
            },
            if p.signed { 's' } else { 'u' },
            if p.float { 'f' } else { 'i' },
        ));
    }

    fn class(&mut self, c: SizeClass) {
        match c {
            SizeClass::Unbounded => self.word("U"),
            SizeClass::Fixed(n) => self.word(format!("F{n}")),
            SizeClass::Bounded(n) => self.word(format!("B{n}")),
        }
    }
}

enum Tok {
    Word(String),
    Str(String),
}

struct Reader {
    toks: Vec<Tok>,
    pos: usize,
}

impl Reader {
    fn new(body: &str) -> Result<Reader, String> {
        let mut toks = Vec::new();
        let mut chars = body.chars().peekable();
        while let Some(&c) = chars.peek() {
            if c.is_whitespace() {
                chars.next();
                continue;
            }
            if c == '"' {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        None => return Err("unterminated string".to_string()),
                        Some('"') => break,
                        Some('\\') => match chars.next() {
                            Some('"') => s.push('"'),
                            Some('\\') => s.push('\\'),
                            Some('n') => s.push('\n'),
                            other => return Err(format!("bad escape {other:?}")),
                        },
                        Some(ch) => s.push(ch),
                    }
                }
                toks.push(Tok::Str(s));
            } else {
                let mut w = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch.is_whitespace() {
                        break;
                    }
                    w.push(ch);
                    chars.next();
                }
                toks.push(Tok::Word(w));
            }
        }
        Ok(Reader { toks, pos: 0 })
    }

    fn next(&mut self) -> Result<&Tok, String> {
        let t = self
            .toks
            .get(self.pos)
            .ok_or_else(|| "unexpected end of entry".to_string())?;
        self.pos += 1;
        Ok(t)
    }

    fn word(&mut self) -> Result<&str, String> {
        match self.next()? {
            Tok::Word(w) => Ok(w),
            Tok::Str(_) => Err("expected word, found string".to_string()),
        }
    }

    fn string(&mut self) -> Result<String, String> {
        match self.next()? {
            Tok::Str(s) => Ok(s.clone()),
            Tok::Word(w) => Err(format!("expected string, found `{w}`")),
        }
    }

    fn num<T: std::str::FromStr>(&mut self) -> Result<T, String> {
        let w = self.word()?;
        w.parse().map_err(|_| format!("bad number `{w}`"))
    }

    fn boolean(&mut self) -> Result<bool, String> {
        match self.word()? {
            "0" => Ok(false),
            "1" => Ok(true),
            other => Err(format!("bad bool `{other}`")),
        }
    }

    fn is_dash(&mut self) -> bool {
        if matches!(self.toks.get(self.pos), Some(Tok::Word(w)) if w == "-") {
            self.pos += 1;
            return true;
        }
        false
    }

    fn opt_num<T: std::str::FromStr>(&mut self) -> Result<Option<T>, String> {
        if self.is_dash() {
            return Ok(None);
        }
        self.num().map(Some)
    }

    fn opt_string(&mut self) -> Result<Option<String>, String> {
        if self.is_dash() {
            return Ok(None);
        }
        self.string().map(Some)
    }

    fn prim(&mut self) -> Result<WirePrim, String> {
        let w = self.word()?;
        let body = w
            .strip_prefix('w')
            .ok_or_else(|| format!("bad prim `{w}`"))?;
        let parts: Vec<&str> = body.split(':').collect();
        let [size, slot, align, order, signed, float] = parts.as_slice() else {
            return Err(format!("bad prim `{w}`"));
        };
        Ok(WirePrim {
            size: size.parse().map_err(|_| format!("bad prim `{w}`"))?,
            slot: slot.parse().map_err(|_| format!("bad prim `{w}`"))?,
            align: align.parse().map_err(|_| format!("bad prim `{w}`"))?,
            order: match *order {
                "B" => Order::Big,
                "L" => Order::Little,
                _ => return Err(format!("bad prim `{w}`")),
            },
            signed: *signed == "s",
            float: *float == "f",
        })
    }

    fn class(&mut self) -> Result<SizeClass, String> {
        let w = self.word()?;
        if w == "U" {
            return Ok(SizeClass::Unbounded);
        }
        let (kind, n) = w.split_at(1);
        let n: u64 = n.parse().map_err(|_| format!("bad class `{w}`"))?;
        match kind {
            "F" => Ok(SizeClass::Fixed(n)),
            "B" => Ok(SizeClass::Bounded(n)),
            _ => Err(format!("bad class `{w}`")),
        }
    }

    fn done(&self) -> bool {
        self.pos >= self.toks.len()
    }
}

// ---------------------------------------------------------------------------
// Entry serialization
// ---------------------------------------------------------------------------

/// Serializes one optimized stub (plan + the outline bodies it needs)
/// into the portable cache text.
///
/// # Errors
/// Returns a message if the stub's structural expansion exceeds the
/// cap or a plan node references a presentation node outside it —
/// both mean "don't cache this stub", never a wrong entry.
pub(crate) fn serialize_unit(
    presc: &PresC,
    stub: &Stub,
    plan: &StubPlan,
    outlines: &BTreeMap<String, PlanNode>,
) -> Result<String, String> {
    let idx = enumerate(presc, stub)?;
    let mut w = Writer::new();
    w.string(&plan.name);
    w.word(match plan.kind {
        StubKind::ClientCall => 0,
        StubKind::ServerDispatch => 1,
        StubKind::ServerWork => 2,
        StubKind::OnewaySend => 3,
    });
    w.string(&plan.op.name);
    w.word(plan.op.request_code);
    w.string(&plan.op.wire_name);
    w.boolean(plan.op.oneway);
    write_msg(&mut w, &plan.request, &idx)?;
    write_msg(&mut w, &plan.reply, &idx)?;
    w.word(outlines.len());
    for (key, body) in outlines {
        w.string(key);
        write_node(&mut w, body, &idx)?;
    }
    Ok(w.out)
}

/// Reconstructs a cached stub plan against the *current* presentation
/// (whose stub must have the same content hash the entry was filed
/// under).
///
/// # Errors
/// Returns a message on any malformed or out-of-range token — the
/// caller demotes the lookup to a miss and replans.
pub(crate) fn deserialize_unit(
    presc: &PresC,
    enc: &Encoding,
    stub: &Stub,
    text: &str,
) -> Result<(StubPlan, BTreeMap<String, PlanNode>), String> {
    let body = text
        .strip_prefix(CACHE_FORMAT)
        .ok_or_else(|| "bad cache entry header".to_string())?;
    let idx = enumerate(presc, stub)?;
    let mut r = Reader::new(body)?;
    let name = r.string()?;
    let kind = match r.num::<u8>()? {
        0 => StubKind::ClientCall,
        1 => StubKind::ServerDispatch,
        2 => StubKind::ServerWork,
        3 => StubKind::OnewaySend,
        other => return Err(format!("bad stub kind {other}")),
    };
    let op = flick_pres::OpInfo {
        name: r.string()?,
        request_code: r.num()?,
        wire_name: r.string()?,
        oneway: r.boolean()?,
    };
    let request = read_msg(&mut r, presc, enc, &idx)?;
    let reply = read_msg(&mut r, presc, enc, &idx)?;
    let n: u64 = r.num()?;
    let mut outlines = BTreeMap::new();
    for _ in 0..n {
        let key = r.string()?;
        let body = read_node(&mut r, presc, enc, &idx)?;
        outlines.insert(key, body);
    }
    if !r.done() {
        return Err("trailing tokens in cache entry".to_string());
    }
    Ok((
        StubPlan {
            name,
            kind,
            op,
            request,
            reply,
        },
        outlines,
    ))
}

fn write_pres(w: &mut Writer, idx: &PresIndex, id: PresId) -> Result<(), String> {
    let pos = idx
        .to_index
        .get(&id)
        .ok_or("plan references a presentation node outside the stub")?;
    w.word(pos);
    Ok(())
}

fn read_pres(r: &mut Reader, idx: &PresIndex) -> Result<PresId, String> {
    let pos: u32 = r.num()?;
    idx.to_id
        .get(pos as usize)
        .copied()
        .ok_or_else(|| format!("presentation position {pos} out of range"))
}

fn write_msg(w: &mut Writer, msg: &MsgPlan, idx: &PresIndex) -> Result<(), String> {
    w.class(msg.class);
    w.opt_num(msg.hoisted);
    w.opt_num(msg.hoisted_capped);
    w.word(msg.slots.len());
    for slot in &msg.slots {
        w.string(&slot.name);
        w.boolean(slot.by_ref);
        w.boolean(slot.live);
        w.opt_num(slot.alias);
        w.boolean(slot.storage == SlotStorage::Arena);
        write_pres(w, idx, slot.pres)?;
        write_node(w, &slot.node, idx)?;
    }
    Ok(())
}

fn read_msg(
    r: &mut Reader,
    presc: &PresC,
    enc: &Encoding,
    idx: &PresIndex,
) -> Result<MsgPlan, String> {
    let class = r.class()?;
    let hoisted = r.opt_num()?;
    let hoisted_capped = r.opt_num()?;
    let n: u64 = r.num()?;
    let mut slots = Vec::new();
    for _ in 0..n {
        let name = r.string()?;
        let by_ref = r.boolean()?;
        let live = r.boolean()?;
        let alias = r.opt_num()?;
        let storage = if r.boolean()? {
            SlotStorage::Arena
        } else {
            SlotStorage::Owned
        };
        let pres = read_pres(r, idx)?;
        let node = read_node(r, presc, enc, idx)?;
        slots.push(SlotPlan {
            name,
            by_ref,
            live,
            alias,
            storage,
            pres,
            node,
        });
    }
    Ok(MsgPlan {
        class,
        hoisted,
        hoisted_capped,
        slots,
    })
}

fn write_node(w: &mut Writer, node: &PlanNode, idx: &PresIndex) -> Result<(), String> {
    match node {
        PlanNode::Void => w.word("void"),
        PlanNode::Prim { prim, descriptor } => {
            w.word("prim");
            w.prim(prim);
            w.opt_num(*descriptor);
        }
        PlanNode::Enum { prim } => {
            w.word("enum");
            w.prim(prim);
        }
        PlanNode::Packed {
            type_name, pres, ..
        } => {
            // The layout is a pure function of (presentation,
            // encoding); recompute on load rather than trusting bytes.
            w.word("packed");
            w.opt_string(type_name.as_deref());
            write_pres(w, idx, *pres)?;
        }
        PlanNode::MemcpyArray {
            prim,
            pres,
            fixed_len,
            bound,
            counted,
            pad_unit,
            descriptor,
        } => {
            w.word("memcpy");
            w.prim(prim);
            write_pres(w, idx, *pres)?;
            w.opt_num(*fixed_len);
            w.opt_num(*bound);
            w.boolean(*counted);
            w.opt_num(*pad_unit);
            w.opt_num(*descriptor);
        }
        PlanNode::String {
            bound,
            style,
            pad_unit,
            borrow_ok,
            descriptor,
        } => {
            w.word("string");
            w.opt_num(*bound);
            w.word(match style {
                StringWire::CountedPadded => "CP",
                StringWire::CountedNul => "CN",
            });
            w.opt_num(*pad_unit);
            w.boolean(*borrow_ok);
            w.opt_num(*descriptor);
        }
        PlanNode::CountedArray {
            bound,
            elem,
            elem_class,
            elem_pres,
            pres,
            elem_type,
            type_name,
            fields,
            strided,
        } => {
            w.word("carray");
            w.opt_num(*bound);
            w.class(*elem_class);
            write_pres(w, idx, *elem_pres)?;
            write_pres(w, idx, *pres)?;
            w.boolean(*strided);
            w.string(elem_type);
            w.string(type_name);
            w.string(&fields.0);
            w.string(&fields.1);
            w.string(&fields.2);
            write_node(w, elem, idx)?;
        }
        PlanNode::FixedArray {
            len,
            elem,
            elem_pres,
            pres,
            elem_type,
        } => {
            w.word("farray");
            w.word(*len);
            write_pres(w, idx, *elem_pres)?;
            write_pres(w, idx, *pres)?;
            w.string(elem_type);
            write_node(w, elem, idx)?;
        }
        PlanNode::Struct {
            type_name,
            pres,
            fields,
        } => {
            w.word("struct");
            w.string(type_name);
            write_pres(w, idx, *pres)?;
            w.word(fields.len());
            for (name, f) in fields {
                w.string(name);
                write_node(w, f, idx)?;
            }
        }
        PlanNode::Union {
            type_name,
            disc_prim,
            cases,
            default,
        } => {
            w.word("union");
            w.string(type_name);
            w.prim(disc_prim);
            w.word(cases.len());
            for (v, name, c) in cases {
                w.word(*v);
                w.string(name);
                write_node(w, c, idx)?;
            }
            match default {
                None => w.word("-"),
                Some((name, d)) => {
                    w.word("+");
                    w.string(name);
                    write_node(w, d, idx)?;
                }
            }
        }
        PlanNode::Optional { elem, elem_type } => {
            w.word("optional");
            w.string(elem_type);
            write_node(w, elem, idx)?;
        }
        PlanNode::Outline { key } => {
            w.word("outline");
            w.string(key);
        }
    }
    Ok(())
}

fn read_node(
    r: &mut Reader,
    presc: &PresC,
    enc: &Encoding,
    idx: &PresIndex,
) -> Result<PlanNode, String> {
    let tag = r.word()?.to_string();
    Ok(match tag.as_str() {
        "void" => PlanNode::Void,
        "prim" => PlanNode::Prim {
            prim: r.prim()?,
            descriptor: r.opt_num()?,
        },
        "enum" => PlanNode::Enum { prim: r.prim()? },
        "packed" => {
            let type_name = r.opt_string()?;
            let pres = read_pres(r, idx)?;
            let layout = pack(presc, enc, pres)
                .ok_or("cached packed chunk no longer packs under this presentation")?;
            PlanNode::Packed {
                layout,
                type_name,
                pres,
            }
        }
        "memcpy" => PlanNode::MemcpyArray {
            prim: r.prim()?,
            pres: read_pres(r, idx)?,
            fixed_len: r.opt_num()?,
            bound: r.opt_num()?,
            counted: r.boolean()?,
            pad_unit: r.opt_num()?,
            descriptor: r.opt_num()?,
        },
        "string" => PlanNode::String {
            bound: r.opt_num()?,
            style: match r.word()? {
                "CP" => StringWire::CountedPadded,
                "CN" => StringWire::CountedNul,
                other => return Err(format!("bad string style `{other}`")),
            },
            pad_unit: r.opt_num()?,
            borrow_ok: r.boolean()?,
            descriptor: r.opt_num()?,
        },
        "carray" => {
            let bound = r.opt_num()?;
            let elem_class = r.class()?;
            let elem_pres = read_pres(r, idx)?;
            let pres = read_pres(r, idx)?;
            let strided = r.boolean()?;
            let elem_type = r.string()?;
            let type_name = r.string()?;
            let fields = (r.string()?, r.string()?, r.string()?);
            let elem = Box::new(read_node(r, presc, enc, idx)?);
            PlanNode::CountedArray {
                bound,
                elem,
                elem_class,
                elem_pres,
                pres,
                elem_type,
                type_name,
                fields,
                strided,
            }
        }
        "farray" => {
            let len = r.num()?;
            let elem_pres = read_pres(r, idx)?;
            let pres = read_pres(r, idx)?;
            let elem_type = r.string()?;
            let elem = Box::new(read_node(r, presc, enc, idx)?);
            PlanNode::FixedArray {
                len,
                elem,
                elem_pres,
                pres,
                elem_type,
            }
        }
        "struct" => {
            let type_name = r.string()?;
            let pres = read_pres(r, idx)?;
            let n: u64 = r.num()?;
            let mut fields = Vec::new();
            for _ in 0..n {
                let name = r.string()?;
                fields.push((name, read_node(r, presc, enc, idx)?));
            }
            PlanNode::Struct {
                type_name,
                pres,
                fields,
            }
        }
        "union" => {
            let type_name = r.string()?;
            let disc_prim = r.prim()?;
            let n: u64 = r.num()?;
            let mut cases = Vec::new();
            for _ in 0..n {
                let v = r.num()?;
                let name = r.string()?;
                cases.push((v, name, read_node(r, presc, enc, idx)?));
            }
            let default = match r.word()? {
                "-" => None,
                "+" => {
                    let name = r.string()?;
                    Some((name, Box::new(read_node(r, presc, enc, idx)?)))
                }
                other => return Err(format!("bad union default marker `{other}`")),
            };
            PlanNode::Union {
                type_name,
                disc_prim,
                cases,
                default,
            }
        }
        "optional" => {
            let elem_type = r.string()?;
            PlanNode::Optional {
                elem: Box::new(read_node(r, presc, enc, idx)?),
                elem_type,
            }
        }
        "outline" => PlanNode::Outline { key: r.string()? },
        other => return Err(format!("bad plan node tag `{other}`")),
    })
}

/// Serialization helpers the backend uses around a cached compile.
pub(crate) type PlanUnit = (StubPlan, BTreeMap<String, PlanNode>);

/// Round-trips one optimized stub unit through the cache text format.
/// Exposed for the backend's miss path (serialize-then-store) and the
/// hit path (fetch-then-deserialize).
#[allow(dead_code)]
pub(crate) fn roundtrip_check(
    presc: &PresC,
    enc: &Encoding,
    stub: &Stub,
    plan: &StubPlan,
    outlines: &BTreeMap<String, PlanNode>,
) -> PlanResult<PlanUnit> {
    let text = serialize_unit(presc, stub, plan, outlines)?;
    deserialize_unit(presc, enc, stub, &text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opts::OptFlags;
    use crate::passes::{run_stub_pipeline, PassPipeline};
    use flick_idl::diag::Diagnostics;
    use flick_pres::Side;

    fn corba(idl: &str, iface: &str) -> PresC {
        let aoi = flick_frontend_corba::parse_str("t.idl", idl);
        let mut d = Diagnostics::new();
        flick_presgen::corba_c(&aoi, iface, Side::Client, &mut d).expect("presentation")
    }

    fn unit_for(p: &PresC, enc: &Encoding, opts: &OptFlags) -> PlanUnit {
        let pipe = PassPipeline::from_opts(opts);
        let u = run_stub_pipeline(p, enc, &pipe, &p.stubs[0]).expect("pipeline");
        let mut stubs = u.mir.stubs;
        (stubs.remove(0), u.mir.outlines)
    }

    const IDL: &str = r"
        struct Point { long x; long y; };
        struct Rect { Point min; Point max; };
        typedef sequence<Rect> RectSeq;
        union U switch (long) { case 1: Point p; default: string s; };
        interface I { void put(in RectSeq rs, in U u, in string note); };
    ";

    #[test]
    fn roundtrip_preserves_optimized_plans() {
        let p = corba(IDL, "I");
        for (enc, opts) in [
            (Encoding::xdr(), OptFlags::all()),
            (Encoding::cdr_be(), OptFlags::all()),
            (Encoding::xdr(), OptFlags::none()),
            (Encoding::mach3(), OptFlags::all()),
        ] {
            let (plan, outlines) = unit_for(&p, &enc, &opts);
            let back = roundtrip_check(&p, &enc, &p.stubs[0], &plan, &outlines)
                .unwrap_or_else(|e| panic!("{} roundtrip: {e}", enc.name));
            assert_eq!(
                format!("{:?}", (&plan, &outlines)),
                format!("{:?}", (&back.0, &back.1)),
                "{} plans must survive the cache format",
                enc.name
            );
        }
    }

    #[test]
    fn roundtrip_preserves_recursive_outlines() {
        let aoi = flick_frontend_onc::parse_str(
            "l.x",
            r"
            struct node { int v; node *next; };
            program L { version V { void put(node n) = 1; } = 1; } = 9;
            ",
        );
        let mut d = Diagnostics::new();
        let p = flick_presgen::rpcgen_c(&aoi, "L", Side::Client, &mut d).unwrap();
        let stub = p
            .stubs
            .iter()
            .find(|s| !s.request.slots.is_empty())
            .expect("a stub with arguments");
        let pipe = PassPipeline::from_opts(&OptFlags::all());
        let u = run_stub_pipeline(&p, &Encoding::xdr(), &pipe, stub).expect("pipeline");
        let plan = &u.mir.stubs[0];
        assert!(
            u.mir.outlines.contains_key("node"),
            "recursive body stays out of line"
        );
        let back = roundtrip_check(&p, &Encoding::xdr(), stub, plan, &u.mir.outlines).unwrap();
        assert_eq!(
            format!("{:?}", (plan, &u.mir.outlines)),
            format!("{:?}", (&back.0, &back.1))
        );
    }

    #[test]
    fn corrupt_entries_are_rejected_not_trusted() {
        let p = corba(IDL, "I");
        let enc = Encoding::xdr();
        let (plan, outlines) = unit_for(&p, &enc, &OptFlags::all());
        let text = serialize_unit(&p, &p.stubs[0], &plan, &outlines).unwrap();
        assert!(deserialize_unit(&p, &enc, &p.stubs[0], "garbage").is_err());
        let truncated = &text[..text.len() / 2];
        assert!(deserialize_unit(&p, &enc, &p.stubs[0], truncated).is_err());
        let mut trailing = text.clone();
        trailing.push_str(" 42");
        assert!(deserialize_unit(&p, &enc, &p.stubs[0], &trailing).is_err());
    }

    #[test]
    fn lru_bound_evicts_oldest() {
        let mut cache = PlanCache::with_capacity(2);
        let key = |i: u64| StubKey {
            pres_hash: i,
            enc_fp: 0,
            pipe_fp: 0,
        };
        cache.store(key(1), "one".into());
        cache.store(key(2), "two".into());
        assert!(cache.fetch(&key(1)).is_some()); // touch 1: now 2 is oldest
        cache.store(key(3), "three".into());
        assert_eq!(cache.stats().evictions, 1);
        assert!(cache.fetch(&key(2)).is_none(), "2 was LRU");
        assert!(cache.fetch(&key(1)).is_some());
        assert!(cache.fetch(&key(3)).is_some());
    }

    #[test]
    fn disk_tier_survives_a_new_cache_and_explains_misses() {
        let dir = std::env::temp_dir().join(format!("flick-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let key = StubKey {
            pres_hash: 7,
            enc_fp: 8,
            pipe_fp: 9,
        };
        {
            let mut cache = PlanCache::with_dir(&dir).unwrap();
            cache.store(key, format!("{CACHE_FORMAT}\npayload"));
            cache.remember("I_put", key);
            cache.persist();
        }
        let mut fresh = PlanCache::with_dir(&dir).unwrap();
        let (text, source) = fresh.fetch(&key).expect("disk hit");
        assert_eq!(source, "disk");
        assert!(text.ends_with("payload"));
        // The persisted index lets a new process name the change.
        let changed = StubKey {
            pres_hash: 1,
            ..key
        };
        assert_eq!(fresh.miss_reason("I_put", &changed), "presentation changed");
        let repipe = StubKey { pipe_fp: 1, ..key };
        let reason = fresh.miss_reason("I_put", &repipe);
        assert!(reason.starts_with("pass pipeline changed"), "{reason}");
        assert!(
            reason.contains("0000000000000009 -> 0000000000000001"),
            "old and new fingerprints must be printed: {reason}"
        );
        assert_eq!(fresh.miss_reason("other", &key), "first compile");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn structural_positions_ignore_arena_numbering() {
        // Two presentations of the same IDL have identical expansions;
        // serialize against one, deserialize against the other.
        let a = corba(IDL, "I");
        let b = corba(IDL, "I");
        let enc = Encoding::xdr();
        let (plan, outlines) = unit_for(&a, &enc, &OptFlags::all());
        let text = serialize_unit(&a, &a.stubs[0], &plan, &outlines).unwrap();
        let (back, back_out) = deserialize_unit(&b, &enc, &b.stubs[0], &text).unwrap();
        let (direct, direct_out) = unit_for(&b, &enc, &OptFlags::all());
        assert_eq!(
            format!("{:?}", (&direct, &direct_out)),
            format!("{:?}", (&back, &back_out)),
            "a cached plan must be usable against a fresh equivalent presentation"
        );
    }
}
