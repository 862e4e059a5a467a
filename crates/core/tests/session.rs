//! Incremental-session semantics: warm recompiles are byte-identical
//! and hit on every stub; an edit replans only the stubs it touched,
//! wherever it moves the rest of the presentation; reconfiguring the
//! optimizer invalidates everything it must.

use flick::{CompileSession, Compiler, Frontend, PassSet, Style, Transport};
use flick_pres::Side;

const CALC_V1: &str = "\
interface Calc {
    long add(in long a, in long b);
    long mul(in long a, in long b);
};";

/// Same file with one operation edited (`mul` gains a parameter);
/// `add` is untouched.
const CALC_V2: &str = "\
interface Calc {
    long add(in long a, in long b);
    long mul(in long a, in long b, in long c);
};";

fn compiler() -> Compiler {
    Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp)
}

fn counters(out: &flick::CompileOutput) -> (u64, u64) {
    let t = &out.report.trace;
    (
        t.counter("cache.stub.hit").unwrap(),
        t.counter("cache.stub.miss").unwrap(),
    )
}

#[test]
fn warm_recompile_is_byte_identical_and_all_hits() {
    let mut s = CompileSession::new(compiler());
    let cold = s
        .compile("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(counters(&cold), (0, 2), "cold compile misses both stubs");

    let warm = s
        .recompile("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(counters(&warm), (2, 0), "warm recompile hits both stubs");
    assert_eq!(cold.c_source, warm.c_source);
    assert_eq!(cold.rust_source, warm.rust_source);
    let stats = s.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.evictions), (2, 2, 0));
}

#[test]
fn warm_recompile_through_the_extension_passes_is_byte_identical() {
    // The bench interface drives all three extension passes: `_pad`
    // is a dead slot, the `send_*` arms share a hoisted count, and
    // `echo_stat` aliases its reply to the request.  A warm
    // recompile must reuse every cached plan and reproduce the same
    // bytes — the passes may not smuggle in any run-to-run state.
    let src = include_str!("../../../testdata/bench.idl");
    // The shared count is hoisted into the word switch, which only a
    // GIOP module's dispatcher has; the other two passes fire under ONC.
    for (transport, pass, marker) in [
        (
            Transport::OncTcp,
            "reply-alias",
            "reply-alias: reuse request bytes",
        ),
        (
            Transport::IiopTcp,
            "merge-prefix",
            "merge-prefix: shared count for every arm below",
        ),
    ] {
        let mut s = CompileSession::new(Compiler::new(Frontend::Corba, Style::RpcgenC, transport));
        let cold = s.compile("bench.idl", src, "Bench", Side::Server).unwrap();
        assert!(
            cold.rust_source.contains(marker),
            "{pass} did not fire on the bench interface under {transport:?}"
        );
        assert!(
            !cold.rust_source.contains("_pad"),
            "dead-slot left `_pad` in the generated stubs"
        );

        let warm = s
            .recompile("bench.idl", src, "Bench", Side::Server)
            .unwrap();
        let t = &warm.report.trace;
        assert_eq!(t.counter("cache.stub.miss"), Some(0), "all plans reused");
        assert!(t.counter("cache.stub.hit").unwrap() >= 4);
        assert_eq!(cold.c_source, warm.c_source);
        assert_eq!(cold.rust_source, warm.rust_source);
    }
}

#[test]
fn editing_one_operation_replans_only_that_stub() {
    let mut s = CompileSession::new(compiler());
    let v1 = s
        .compile("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(counters(&v1), (0, 2));

    let v2 = s
        .recompile("calc.idl", CALC_V2, "Calc", Side::Client)
        .unwrap();
    // `add` is structurally unchanged → hit; the edited `mul` misses.
    assert_eq!(counters(&v2), (1, 1), "only the edited stub replans");
    let report = v2.report.cache.expect("cache report");
    assert_eq!((report.hits, report.misses), (1, 1));
    assert!(v2.rust_source.contains("encode_mul_request"));

    // A throwaway compiler on v2 must agree byte for byte with the
    // half-cached session output.
    let fresh = compiler()
        .compile_source("calc.idl", CALC_V2, "Calc", Side::Client)
        .unwrap();
    assert_eq!(fresh.c_source, v2.c_source);
    assert_eq!(fresh.rust_source, v2.rust_source);
}

#[test]
fn reconfiguring_the_optimizer_invalidates_every_stub() {
    let mut s = CompileSession::new(compiler());
    s.compile("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();

    // A different pass set is a different content key.
    *s.compiler_mut() = compiler().with_opts(PassSet::none());
    let out = s
        .recompile("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(counters(&out), (0, 2), "new pipeline misses everything");
    let cold = compiler()
        .with_opts(PassSet::none())
        .compile_source("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(cold.rust_source, out.rust_source);
    assert_eq!(cold.c_source, out.c_source);

    // So does dropping one pass explicitly…
    let no_memcpy = PassSet::all().without("coalesce-memcpy").unwrap();
    *s.compiler_mut() = compiler().with_opts(no_memcpy);
    let out = s
        .recompile("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(counters(&out), (0, 2));
    let cold = compiler()
        .with_opts(no_memcpy)
        .compile_source("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(cold.rust_source, out.rust_source);
    assert_eq!(cold.c_source, out.c_source);

    // …while switching the transport changes the wire encoding.
    *s.compiler_mut() = Compiler::new(Frontend::Corba, Style::CorbaC, Transport::OncTcp);
    let out = s
        .recompile("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(counters(&out), (0, 2));

    // Restoring the original configuration hits again: entries are
    // content-addressed, never destructively invalidated.
    *s.compiler_mut() = compiler();
    let out = s
        .recompile("calc.idl", CALC_V1, "Calc", Side::Client)
        .unwrap();
    assert_eq!(counters(&out), (2, 0), "original keys still resident");
}

/// Three operations over shared types; `first` takes a scalar.
const SHAPES_V1: &str = "\
struct Point { long x; long y; };
struct Rect { Point min; Point max; };
typedef sequence<Rect> RectSeq;
interface Shapes {
    void first(in long n);
    void put(in RectSeq rs, in string note);
    Rect bounds(in RectSeq rs);
};";

/// `SHAPES_V1` with a new struct declared ahead of the others and
/// `first` taking it: one operation touched, and its new nodes sit in
/// the PRES arena ahead of everything `put` and `bounds` use.
const SHAPES_V2: &str = "\
struct Header { double stamp; string who; };
struct Point { long x; long y; };
struct Rect { Point min; Point max; };
typedef sequence<Rect> RectSeq;
interface Shapes {
    void first(in Header h);
    void put(in RectSeq rs, in string note);
    Rect bounds(in RectSeq rs);
};";

#[test]
fn an_edit_that_shifts_the_arena_replans_only_the_stub_it_touched() {
    let onc = || Compiler::new(Frontend::Corba, Style::RpcgenC, Transport::OncTcp);
    let mut s = CompileSession::new(onc());
    let v1 = s
        .compile("shapes.idl", SHAPES_V1, "Shapes", Side::Server)
        .unwrap();
    let stubs = v1.presc.stubs.len() as u64;
    assert_eq!(counters(&v1), (0, stubs));

    let v2 = s
        .recompile("shapes.idl", SHAPES_V2, "Shapes", Side::Server)
        .unwrap();
    // The untouched stubs kept their content hashes but not their
    // arena indices: the restored plans had to be re-pointed.
    for (before, after) in v1.presc.stubs.iter().zip(&v2.presc.stubs).skip(1) {
        assert_eq!(before.name, after.name);
        assert_ne!(
            before.request.slots[0].pres, after.request.slots[0].pres,
            "{}: the edit was meant to shift the arena",
            before.name
        );
    }
    assert_eq!(counters(&v2), (stubs - 1, 1), "only `first` replans");
    let cold = onc()
        .compile_source("shapes.idl", SHAPES_V2, "Shapes", Side::Server)
        .unwrap();
    assert_eq!(cold.rust_source, v2.rust_source);
    assert_eq!(cold.c_source, v2.c_source);
}

/// An interface as text the walk below can edit: everything ahead of
/// the interface, then one string per operation.
#[derive(Clone)]
struct Source {
    decls: String,
    iface: &'static str,
    ops: Vec<String>,
}

impl Source {
    fn parse(text: &str, iface: &'static str) -> Source {
        let open = format!("interface {iface} {{");
        let (decls, body) = text
            .split_once(&open)
            .expect("the interface is in the file");
        let body: String = body
            .lines()
            .filter(|l| !l.trim_start().starts_with("//"))
            .collect::<Vec<_>>()
            .join(" ");
        let ops = body
            .split(';')
            .map(str::trim)
            .filter(|op| op.contains('('))
            .map(String::from)
            .collect();
        Source {
            decls: decls.to_string(),
            iface,
            ops,
        }
    }

    fn render(&self) -> String {
        let mut text = format!("{}interface {} {{\n", self.decls, self.iface);
        for op in &self.ops {
            text.push_str(&format!("    {op};\n"));
        }
        text.push_str("};\n");
        text
    }
}

/// SplitMix64: the walk must repeat exactly from its seed.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// `steps` seeded edits of `text` through one session, each drawn from
/// {rename a parameter, add an operation, remove one, reorder two,
/// undo}; after every one the warm output must equal a cold compile of
/// the same text and every stub must be accounted a hit or a miss.
fn edit_walk(
    compiler: &Compiler,
    text: &str,
    iface: &'static str,
    arg_types: &[&str],
    seed: u64,
    steps: usize,
) {
    let mut rng = Rng(seed);
    let mut source = Source::parse(text, iface);
    let mut history: Vec<Source> = Vec::new();
    let mut session = CompileSession::new(compiler.clone());
    let (mut hits, mut misses) = (0, 0);
    for step in 0..steps {
        let edit = rng.below(5);
        if edit == 4 {
            // Undo: back to text the session has already compiled.
            if let Some(earlier) = history.pop() {
                source = earlier;
            }
        } else {
            history.push(source.clone());
        }
        let at = rng.below(source.ops.len());
        match edit {
            0 => {
                // Rename the last parameter of an operation that has one.
                let op = &mut source.ops[at];
                let close = op.rfind(')').expect("an operation has a parameter list");
                if !op[..close].ends_with('(') {
                    let name_at = op[..close].rfind(' ').expect("`dir type name`") + 1;
                    op.replace_range(name_at..close, &format!("renamed{step}"));
                }
            }
            1 => {
                let ty = arg_types[rng.below(arg_types.len())];
                let op = format!("long extra{step}(in long n{step}, in {ty} v)");
                source.ops.insert(at, op);
            }
            2 if source.ops.len() > 1 => {
                source.ops.remove(at);
            }
            3 => {
                let other = rng.below(source.ops.len());
                source.ops.swap(at, other);
            }
            _ => {}
        }

        let text = source.render();
        let warm = session
            .recompile("walk.idl", &text, iface, Side::Server)
            .unwrap_or_else(|e| panic!("step {step} (seed {seed}): {e}\n{text}"));
        let cold = compiler
            .compile_source("walk.idl", &text, iface, Side::Server)
            .expect("cold compile");
        assert_eq!(warm.rust_source, cold.rust_source, "step {step}:\n{text}");
        assert_eq!(warm.c_source, cold.c_source, "step {step}:\n{text}");
        let (hit, miss) = counters(&warm);
        assert_eq!(
            hit + miss,
            warm.presc.stubs.len() as u64,
            "step {step}: every stub is a hit or a miss"
        );
        hits += hit;
        misses += miss;
    }
    let stats = session.cache_stats();
    assert_eq!((stats.hits, stats.misses), (hits, misses));
    assert!(
        hits > misses,
        "small edits should mostly hit: {hits} hits, {misses} misses"
    );
}

#[test]
fn a_seeded_edit_walk_stays_byte_identical_to_cold() {
    edit_walk(
        &Compiler::new(Frontend::Corba, Style::CorbaC, Transport::IiopTcp),
        include_str!("../../../testdata/varied.idl"),
        "Varied",
        &["SampleSeq", "Grid", "Shade", "Color", "string"],
        0x5eed_0001,
        100,
    );
    edit_walk(
        &Compiler::new(Frontend::Corba, Style::RpcgenC, Transport::OncTcp),
        include_str!("../../../testdata/bench.idl"),
        "Bench",
        &["IntSeq", "RectSeq", "DirentSeq", "Stat", "long"],
        0x5eed_0002,
        100,
    );
}
