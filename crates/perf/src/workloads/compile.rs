//! `compile`: the compiler itself, with zero runtime work.
//!
//! Front ends, presgen, plan + passes, the emitters and the plan cache:
//! `cold.corpus` compiles each canonical `regen::jobs()` module with a
//! fresh `Compiler`, `cold.wide` a seeded synthetic 15-operation
//! interface, `warm.edit1` recompiles that interface through a
//! `CompileSession` after a one-operation edit.  Cold beside warm shows
//! a cache gain that costs the cold path.

use crate::harness::{Cell, RunOut, SetupClock};
use crate::inputs::{self, Rng};
use crate::trace::{enter, next_op, Name};
use flick::{CompileOutput, CompileSession, Compiler, Frontend, Style, Transport, PASS_NAMES};
use flick_bench::regen::{self, Job};
use flick_pres::Side;
use std::collections::HashMap;

/// Ops per compile cell in the count pass.
const COUNT_OPS: usize = 64;
/// Modules at the head of `regen::jobs()` that are canonical (the rest
/// are single-pass ablation variants of them).
const CANONICAL_MODULES: usize = 9;
/// Edits after which the warm cell starts over from a fresh session,
/// so the plan cache it measures against stays within a fixed size
/// range instead of growing for the length of the run.
const EDITS_PER_SESSION: u32 = 64;
/// Every this-many-th warm verification compiles the edited source
/// cold and compares the outputs byte for byte; the others check
/// length and cache outcome.
const FULL_VERIFY_EVERY: u32 = 8;

const GOLDEN: &str = include_str!("../../../../testdata/golden_hashes.txt");

fn out_bytes(out: &CompileOutput) -> u64 {
    (out.rust_source.len() + out.c_source.len()) as u64
}

/// What the passes decided over `outputs`, as `pass.<name>.decisions`
/// diagnostics (read from each returned `CompileReport`).
fn pass_decisions<'a>(
    outputs: impl Iterator<Item = &'a CompileOutput> + Clone,
) -> Vec<(String, f64)> {
    PASS_NAMES
        .iter()
        .map(|pass| {
            let counter = format!("pass.{pass}.decisions");
            let n: u64 = outputs
                .clone()
                .map(|o| o.report.trace.counter(&counter).unwrap_or(0))
                .sum();
            (counter, n as f64)
        })
        .collect()
}

/// The compiler's own phase spans of one compile, as batch timings.
fn phase_times(out: &CompileOutput, into: &mut Vec<(&'static str, f64)>) {
    let span = |name: &str| out.report.trace.span(name).map_or(0.0, |s| s.nanos as f64);
    into.push(("parse_ns", span("parse")));
    into.push(("presgen_ns", span("presgen")));
    into.push(("plan_ns", span("backend.plan")));
    into.push((
        "emit_c_ns",
        span("backend.emit-c") + span("backend.print-c"),
    ));
    into.push(("emit_rust_ns", span("backend.emit-rust")));
}

struct CorpusCell<const ON: bool> {
    jobs: Vec<Job>,
    /// `(module, stub) → hash` from `testdata/golden_hashes.txt`.
    golden: HashMap<(String, String), u64>,
    source_bytes: u64,
    last: Vec<CompileOutput>,
}

impl<const ON: bool> CorpusCell<ON> {
    fn new() -> Self {
        let mut jobs = regen::jobs();
        jobs.truncate(CANONICAL_MODULES);
        let golden = GOLDEN
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let mut f = l.split_whitespace();
                let (module, stub, hash) = (f.next()?, f.next()?, f.next()?);
                Some((
                    (module.to_string(), stub.to_string()),
                    u64::from_str_radix(hash, 16).ok()?,
                ))
            })
            .collect();
        CorpusCell {
            source_bytes: jobs.iter().map(|j| j.source.len() as u64).sum(),
            jobs,
            golden,
            last: Vec::new(),
        }
    }
}

impl<const ON: bool> Cell for CorpusCell<ON> {
    fn name(&self) -> &str {
        "cold.corpus"
    }

    fn payload_bytes(&self) -> u64 {
        self.source_bytes
    }

    fn count_ops(&self) -> usize {
        COUNT_OPS
    }

    fn run(&mut self, ops: usize) -> RunOut {
        let mut out = RunOut::default();
        for _ in 0..ops {
            next_op::<ON>();
            self.last.clear();
            let mut ok = true;
            for j in &self.jobs {
                let _s = enter::<ON>(Name::Compile);
                let compiler = Compiler::new(j.frontend, j.style, j.transport).with_opts(j.opts);
                match compiler.compile_source(j.file, j.source, j.iface, Side::Server) {
                    Ok(compiled) => {
                        out.bytes_out += out_bytes(&compiled);
                        self.last.push(compiled);
                    }
                    Err(_) => ok = false,
                }
            }
            out.failed += u64::from(!ok);
        }
        out
    }

    fn verify_last(&mut self) -> Result<(), String> {
        if self.last.len() != self.jobs.len() {
            return Err("a corpus module failed to compile".to_string());
        }
        for (job, compiled) in self.jobs.iter().zip(&self.last) {
            for stub in &compiled.presc.stubs {
                let got = flick_pres::stub_hash(&compiled.presc, stub);
                let key = (job.out_name.to_string(), stub.name.clone());
                if self.golden.get(&key) != Some(&got) {
                    return Err(format!(
                        "{} {}: stub hash {got:016x} is not the golden one",
                        job.out_name, stub.name
                    ));
                }
            }
        }
        Ok(())
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        pass_decisions(self.last.iter())
    }
}

/// The compiler every synthetic-interface compile uses.
#[must_use]
pub fn wide_compiler() -> Compiler {
    Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
}

struct WideCell<const ON: bool> {
    source: String,
    /// The first output: every later one must equal it.
    first: Option<CompileOutput>,
    last: Option<CompileOutput>,
}

impl<const ON: bool> Cell for WideCell<ON> {
    fn name(&self) -> &str {
        "cold.wide"
    }

    fn payload_bytes(&self) -> u64 {
        self.source.len() as u64
    }

    fn count_ops(&self) -> usize {
        COUNT_OPS
    }

    fn run(&mut self, ops: usize) -> RunOut {
        let mut out = RunOut::default();
        for _ in 0..ops {
            next_op::<ON>();
            let _s = enter::<ON>(Name::Compile);
            match wide_compiler().compile_source("wide.idl", &self.source, "Wide", Side::Server) {
                Ok(compiled) => {
                    out.bytes_out += out_bytes(&compiled);
                    self.last = Some(compiled);
                }
                Err(_) => {
                    out.failed += 1;
                    self.last = None;
                }
            }
        }
        out
    }

    fn verify_last(&mut self) -> Result<(), String> {
        let last = self
            .last
            .as_ref()
            .ok_or("the wide interface failed to compile")?;
        if last.presc.stubs.len() != inputs::WIDE_OPS {
            return Err(format!(
                "{} stubs, expected {}",
                last.presc.stubs.len(),
                inputs::WIDE_OPS
            ));
        }
        match &self.first {
            Some(first)
                if first.rust_source != last.rust_source || first.c_source != last.c_source =>
            {
                Err("two cold compiles of one source differ".to_string())
            }
            Some(_) => Ok(()),
            None => {
                self.first = self.last.clone();
                Ok(())
            }
        }
    }

    fn batch_times(&self, out: &mut Vec<(&'static str, f64)>) {
        if let Some(last) = &self.last {
            phase_times(last, out);
        }
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        let Some(last) = &self.last else {
            return Vec::new();
        };
        let mut d = pass_decisions(std::iter::once(last));
        d.push(("gen.rust_bytes".to_string(), last.rust_source.len() as f64));
        d.push(("gen.c_bytes".to_string(), last.c_source.len() as f64));
        d
    }
}

struct WarmCell<const ON: bool> {
    seed: u64,
    session: CompileSession,
    /// Output of the unedited source (every edit keeps its length).
    base_bytes: u64,
    /// Next edit number; each one names the edited parameter afresh.
    edit: u32,
    edits_this_session: u32,
    verifies: u32,
    /// The source under edit, and where the edited name sits in it.
    source: String,
    edit_at: usize,
    last: Option<CompileOutput>,
    hits: u64,
    lookups: u64,
}

impl<const ON: bool> WarmCell<ON> {
    fn new(seed: u64) -> Result<Self, String> {
        let mut cell = WarmCell {
            seed,
            session: CompileSession::new(wide_compiler()),
            base_bytes: 0,
            edit: Rng::new(seed, 0xed17).below(1 << 20) as u32,
            edits_this_session: 0,
            verifies: 0,
            source: String::new(),
            edit_at: 0,
            last: None,
            hits: 0,
            lookups: 0,
        };
        cell.rebase()?;
        Ok(cell)
    }

    /// A fresh session that has compiled the unedited source once.
    fn rebase(&mut self) -> Result<(), String> {
        self.session = CompileSession::new(wide_compiler());
        self.source = inputs::wide_idl(self.seed, self.edit, inputs::WIDE_OPS);
        self.edit_at = self
            .source
            .find(&inputs::wide_edit_name(self.edit))
            .ok_or("the synthetic source lost its edited parameter")?;
        let compiled = self
            .session
            .compile("wide.idl", &self.source, "Wide", Side::Server)
            .map_err(|e| format!("the wide interface failed to compile: {e}"))?;
        self.base_bytes = out_bytes(&compiled);
        self.edits_this_session = 0;
        Ok(())
    }
}

impl<const ON: bool> Cell for WarmCell<ON> {
    fn name(&self) -> &str {
        "warm.edit1"
    }

    fn payload_bytes(&self) -> u64 {
        self.source.len() as u64
    }

    fn count_ops(&self) -> usize {
        COUNT_OPS
    }

    fn run(&mut self, ops: usize) -> RunOut {
        let mut out = RunOut::default();
        for _ in 0..ops {
            self.edit = self.edit.wrapping_add(1) & 0x0fff_ffff;
            self.edits_this_session += 1;
            // The edit renames one parameter in place (same width).
            let name = inputs::wide_edit_name(self.edit);
            self.source
                .replace_range(self.edit_at..self.edit_at + name.len(), &name);
            next_op::<ON>();
            let _s = enter::<ON>(Name::Compile);
            match self
                .session
                .recompile("wide.idl", &self.source, "Wide", Side::Server)
            {
                Ok(compiled) => {
                    out.bytes_out += out_bytes(&compiled);
                    if let Some(cache) = &compiled.report.cache {
                        self.hits += cache.hits;
                        self.lookups += cache.hits + cache.misses;
                    }
                    self.last = Some(compiled);
                }
                Err(_) => {
                    out.failed += 1;
                    self.last = None;
                }
            }
        }
        out
    }

    fn verify_last(&mut self) -> Result<(), String> {
        let last = self
            .last
            .as_ref()
            .ok_or("the edited interface failed to recompile")?;
        let cache = last
            .report
            .cache
            .as_ref()
            .ok_or("no cache report from a session")?;
        let stubs = inputs::WIDE_OPS as u64;
        if (cache.hits, cache.misses) != (stubs - 1, 1) {
            return Err(format!(
                "a one-operation edit should miss once: {} hits, {} misses",
                cache.hits, cache.misses
            ));
        }
        if out_bytes(last) != self.base_bytes {
            return Err("a same-width edit changed the output size".to_string());
        }
        self.verifies += 1;
        if self.verifies % FULL_VERIFY_EVERY == 1 {
            let cold = wide_compiler()
                .compile_source("wide.idl", &self.source, "Wide", Side::Server)
                .map_err(|e| format!("cold compile of the edited source failed: {e}"))?;
            if cold.rust_source != last.rust_source || cold.c_source != last.c_source {
                return Err("warm and cold outputs differ".to_string());
            }
        }
        if self.edits_this_session >= EDITS_PER_SESSION {
            self.rebase()?;
        }
        Ok(())
    }

    fn diagnostics(&self) -> Vec<(String, f64)> {
        vec![(
            "cache.hit_share".to_string(),
            self.hits as f64 / self.lookups.max(1) as f64,
        )]
    }
}

/// Set-up of `compile`.
///
/// # Panics
/// When the synthetic interface does not compile at all (a bug in the
/// generator, not a measurement).
pub fn build<const ON: bool>(seed: u64, clock: &mut SetupClock) -> Vec<Box<dyn Cell>> {
    let wide = WideCell::<ON> {
        source: inputs::wide_idl(seed, 0, inputs::WIDE_OPS),
        first: None,
        last: None,
    };
    let corpus = CorpusCell::<ON>::new();
    clock.step();
    let warm = WarmCell::<ON>::new(seed).expect("synthetic interface compiles");
    vec![Box::new(corpus), Box::new(wide), Box::new(warm)]
}
