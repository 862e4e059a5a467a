//! `flickc` — the Flick IDL compiler command line.
//!
//! ```text
//! flickc --frontend corba --pres corba-c --transport iiop-tcp \
//!        --interface Mail --side client [--emit c|rust|both] \
//!        [--no-opt | --disable-pass=NAME ...] \
//!        [-o OUTDIR] mail.idl
//! ```
//!
//! Components are selected independently — the kit's mix-and-match —
//! and each optimization can be disabled for inspection.  With no
//! `-o`, generated code goes to stdout.

use std::path::PathBuf;
use std::process::ExitCode;

use flick::{Compiler, Frontend, MirDump, PassSet, Style, Transport, PASS_NAMES};
use flick_backend::passes::pass_position;
use flick_backend::Encoding;
use flick_pres::Side;

struct Args {
    frontend: Frontend,
    style: Style,
    transport: Transport,
    interface: Option<String>,
    side: Side,
    emit_c: bool,
    emit_rust: bool,
    passes: PassSet,
    dump_mir: Option<MirDump>,
    transcode: Option<(Encoding, Encoding)>,
    out_dir: Option<PathBuf>,
    timings: bool,
    stats: bool,
    stats_json: bool,
    input: PathBuf,
}

enum ParsedArgs {
    Run(Box<Args>),
    Help,
    Passes,
}

const USAGE: &str = "\
usage: flickc [options] <input.idl|.x|.defs>
  --frontend corba|onc|mig     front end (default: by file extension)
  --pres corba-c|rpcgen-c|fluke-c   presentation style (default corba-c)
  --transport iiop-tcp|onc-tcp|onc-udp|mach3|fluke  back end (default iiop-tcp)
  --interface NAME             interface/program/subsystem to compile
                               (default: sole interface in the file)
  --side client|server         presentation side (default client)
  --emit c|rust|both           what to print/write (default both)
  --no-opt                     disable every optimization
  --passes                     list the MIR optimization passes and exit
  --disable-pass=NAME          drop one pass from the pipeline (repeatable)
  --transcode=SRC:DST          emit a fused SRC-to-DST transcoding gateway
                               module instead of stubs (encodings: xdr,
                               cdr-be, cdr-le, cdr-native, mach3, fluke);
                               --disable-pass=fuse-transcode falls back to
                               the slot-by-slot rewrites
  --dump-mir[=PASS]            dump the MIR to stderr (final, or after
                               PASS; `lower` dumps the unoptimized MIR)
  --timings                    report per-phase compile times to stderr
  --stats[=json]               report optimizer decision counts, and with
                               --transcode the gateway plan's transcode.*
                               counters (with =json, one JSON object to
                               stderr)
  -o DIR                       write <iface>.c / <iface>.rs into DIR
  -h, --help                   this text";

fn parse_args() -> Result<ParsedArgs, String> {
    let mut frontend = None;
    let mut style = Style::CorbaC;
    let mut transport = Transport::IiopTcp;
    let mut interface = None;
    let mut side = Side::Client;
    let mut emit_c = true;
    let mut emit_rust = true;
    let mut passes = PassSet::all();
    let mut dump_mir = None;
    let mut transcode = None;
    let mut out_dir = None;
    let mut timings = false;
    let mut stats = false;
    let mut stats_json = false;
    let mut input = None;

    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut val = |what: &str| it.next().ok_or_else(|| format!("{what} requires a value"));
        match a.as_str() {
            "-h" | "--help" => return Ok(ParsedArgs::Help),
            "--frontend" => {
                frontend = Some(match val("--frontend")?.as_str() {
                    "corba" => Frontend::Corba,
                    "onc" => Frontend::Onc,
                    "mig" => Frontend::Mig,
                    other => return Err(format!("unknown front end `{other}`")),
                });
            }
            "--pres" => {
                style = match val("--pres")?.as_str() {
                    "corba-c" => Style::CorbaC,
                    "rpcgen-c" => Style::RpcgenC,
                    "fluke-c" => Style::FlukeC,
                    other => return Err(format!("unknown presentation `{other}`")),
                };
            }
            "--transport" => {
                transport = match val("--transport")?.as_str() {
                    "iiop-tcp" => Transport::IiopTcp,
                    "onc-tcp" => Transport::OncTcp,
                    "onc-udp" => Transport::OncUdp,
                    "mach3" => Transport::Mach3,
                    "fluke" => Transport::Fluke,
                    other => return Err(format!("unknown transport `{other}`")),
                };
            }
            "--interface" => interface = Some(val("--interface")?),
            "--side" => {
                side = match val("--side")?.as_str() {
                    "client" => Side::Client,
                    "server" => Side::Server,
                    other => return Err(format!("unknown side `{other}`")),
                };
            }
            "--emit" => match val("--emit")?.as_str() {
                "c" => {
                    emit_c = true;
                    emit_rust = false;
                }
                "rust" => {
                    emit_c = false;
                    emit_rust = true;
                }
                "both" => {
                    emit_c = true;
                    emit_rust = true;
                }
                other => return Err(format!("unknown emit target `{other}`")),
            },
            "--timings" => timings = true,
            "--stats" => stats = true,
            "--stats=json" => {
                stats = true;
                stats_json = true;
            }
            "--no-opt" => {
                // Removes, never resets: `--disable-pass` composes with
                // it in either order.
                for pass in PASS_NAMES.iter().filter(|p| !PassSet::none().contains(p)) {
                    passes = passes.without(pass)?;
                }
            }
            "--passes" => return Ok(ParsedArgs::Passes),
            "--dump-mir" => dump_mir = Some(MirDump { after: None }),
            "--transcode" => transcode = Some(parse_transcode(&val("--transcode")?)?),
            other if other.starts_with("--transcode=") => {
                transcode = Some(parse_transcode(&other["--transcode=".len()..])?);
            }
            other if other.starts_with("--disable-pass=") => {
                passes = passes.without(&other["--disable-pass=".len()..])?;
            }
            "--disable-pass" => passes = passes.without(&val("--disable-pass")?)?,
            other if other.starts_with("--dump-mir=") => {
                let name = &other["--dump-mir=".len()..];
                if name != "lower" {
                    pass_position(name)?;
                }
                dump_mir = Some(MirDump {
                    after: Some(name.to_string()),
                });
            }
            "-o" => out_dir = Some(PathBuf::from(val("-o")?)),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`\n{USAGE}"));
            }
            other => {
                if input.replace(PathBuf::from(other)).is_some() {
                    return Err("more than one input file".to_string());
                }
            }
        }
    }
    let input = input.ok_or_else(|| format!("no input file\n{USAGE}"))?;
    let frontend = frontend.unwrap_or_else(|| match input.extension().and_then(|e| e.to_str()) {
        Some("x") => Frontend::Onc,
        Some("defs") => Frontend::Mig,
        _ => Frontend::Corba,
    });
    Ok(ParsedArgs::Run(Box::new(Args {
        frontend,
        style,
        transport,
        interface,
        side,
        emit_c,
        emit_rust,
        passes,
        dump_mir,
        transcode,
        out_dir,
        timings,
        stats,
        stats_json,
        input,
    })))
}

/// Parses a `--transcode` SRC:DST encoding pair.
fn parse_transcode(spec: &str) -> Result<(Encoding, Encoding), String> {
    let Some((src, dst)) = spec.split_once(':') else {
        return Err(format!("--transcode needs SRC:DST, got `{spec}`"));
    };
    let enc = |name: &str| {
        Encoding::by_name(name).ok_or_else(|| {
            format!(
                "unknown encoding `{name}` \
                 (known encodings: xdr, cdr-be, cdr-le, cdr-native, mach3, fluke)"
            )
        })
    };
    Ok((enc(src)?, enc(dst)?))
}

/// Finds the sole interface name when none was given.
fn infer_interface(frontend: Frontend, text: &str) -> Option<String> {
    let kw = match frontend {
        Frontend::Corba => "interface",
        Frontend::Onc => "program",
        Frontend::Mig => "subsystem",
    };
    let mut found = None;
    let mut toks = text.split_whitespace().peekable();
    while let Some(t) = toks.next() {
        if t == kw {
            let name = toks.peek()?.trim_end_matches([';', '{']);
            if name.is_empty() {
                continue;
            }
            if found.replace(name.to_string()).is_some() {
                return None; // ambiguous
            }
        }
    }
    found
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(ParsedArgs::Run(a)) => a,
        Ok(ParsedArgs::Help) => {
            println!("{USAGE}");
            return ExitCode::SUCCESS;
        }
        Ok(ParsedArgs::Passes) => {
            for name in PASS_NAMES {
                println!("{name}");
            }
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}");
            return ExitCode::FAILURE;
        }
    };
    let text = match std::fs::read_to_string(&args.input) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("flickc: cannot read {}: {e}", args.input.display());
            return ExitCode::FAILURE;
        }
    };
    let Some(iface) = args
        .interface
        .clone()
        .or_else(|| infer_interface(args.frontend, &text))
    else {
        eprintln!("flickc: could not infer a unique interface; pass --interface NAME");
        return ExitCode::FAILURE;
    };

    let mut compiler =
        Compiler::new(args.frontend, args.style, args.transport).with_opts(args.passes);
    compiler.backend.dump_mir = args.dump_mir.clone();
    let file_name = args.input.display().to_string();
    let mut out = match compiler.compile_source(&file_name, &text, &iface, args.side) {
        Ok(o) => o,
        Err(e) => {
            eprint!("{e}");
            eprintln!(
                "flickc: {} error(s), {} warning(s) in phase `{}`",
                e.errors,
                e.warnings,
                e.phase.name()
            );
            return ExitCode::FAILURE;
        }
    };

    // Gateway mode: plan the SRC→DST transcoding module instead of
    // stubs.  Ablating `fuse-transcode` (or --no-opt) switches the
    // generated dispatchers to the slot-by-slot rewrites.  The plan's
    // fusion statistics join the report, so `--stats` shows what the
    // one pass with no decisions over stub plans actually did.
    let mut gateway = None;
    if let Some((src, dst)) = &args.transcode {
        let fused = args.passes.contains("fuse-transcode");
        match flick_backend::compile_transcode(&out.presc, src, dst, fused) {
            Ok((source, stats)) => {
                for (name, v) in stats.counters() {
                    out.report.trace.set_counter(name, v);
                }
                gateway = Some(source);
            }
            Err(e) => {
                eprintln!("flickc: transcode: {e}");
                return ExitCode::FAILURE;
            }
        }
    }

    if let Some(dump) = &out.mir_dump {
        eprint!("{dump}");
    }

    if args.timings {
        eprintln!(
            "-- timings: {} -> {} -> {} --",
            out.report.frontend, out.report.style, out.report.transport
        );
        for line in out.report.trace.to_text().lines() {
            eprintln!("{line}");
        }
    }
    if args.stats {
        if args.stats_json {
            eprintln!("{}", out.report.to_json());
        } else {
            eprintln!(
                "-- optimizer stats: {} -> {} -> {} --",
                out.report.frontend, out.report.style, out.report.transport
            );
            for (name, v) in &out.report.trace.counters {
                eprintln!("{name:<32} {v}");
            }
        }
    }

    if let Some(source) = gateway {
        match &args.out_dir {
            None => print!("{source}"),
            Some(dir) => {
                if let Err(e) = std::fs::create_dir_all(dir) {
                    eprintln!("flickc: cannot create {}: {e}", dir.display());
                    return ExitCode::FAILURE;
                }
                let p = dir.join(format!("{}_transcode.rs", iface.replace("::", "_")));
                if let Err(e) = std::fs::write(&p, &source) {
                    eprintln!("flickc: cannot write {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", p.display());
            }
        }
        return ExitCode::SUCCESS;
    }

    match &args.out_dir {
        None => {
            if args.emit_c {
                print!("{}", out.c_source);
            }
            if args.emit_rust {
                if args.emit_c {
                    println!("\n/* ---- Rust output ---- */\n");
                }
                print!("{}", out.rust_source);
            }
        }
        Some(dir) => {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("flickc: cannot create {}: {e}", dir.display());
                return ExitCode::FAILURE;
            }
            let base = iface.replace("::", "_");
            if args.emit_c {
                // Ship the support header so the output compiles alone.
                let p = dir.join("flick_runtime.h");
                if let Err(e) = std::fs::write(&p, flick_backend::C_RUNTIME_HEADER) {
                    eprintln!("flickc: cannot write {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", p.display());
            }
            if args.emit_c {
                let p = dir.join(format!("{base}.c"));
                if let Err(e) = std::fs::write(&p, &out.c_source) {
                    eprintln!("flickc: cannot write {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", p.display());
            }
            if args.emit_rust {
                let p = dir.join(format!("{base}.rs"));
                if let Err(e) = std::fs::write(&p, &out.rust_source) {
                    eprintln!("flickc: cannot write {}: {e}", p.display());
                    return ExitCode::FAILURE;
                }
                eprintln!("wrote {}", p.display());
            }
        }
    }
    ExitCode::SUCCESS
}
