//! Two halves of one stub module agree on the wire.
//!
//! Each case emits Rust for a tiny IDL with the release `flickc`,
//! compiles the modules with plain `rustc` against the release
//! `flick-runtime` rlib (as `.github/ablation_driver.rs` is compiled)
//! and runs a driver that holds what one half writes to what the other
//! reads:
//!
//! * the server dispatcher's reply is `encode_<op>_reply`'s bytes, and
//!   the client's `decode_<op>_reply` reads it back;
//! * a fixed scalar run after a byte is read where it was written,
//!   under Mach 3 and under CDR with `form-chunks` off;
//! * an out-of-line body aligns against the message, not its own
//!   entry: with `inline-marshal` off the request is the inlined
//!   module's bytes, and both hoist a check of the 16 bytes, pad
//!   included, that they write.
//!
//! The test needs `cargo build --release` first (tier-1 runs it); it
//! skips, saying why, when `rustc`, `flickc` or the rlibs are missing.

use std::path::{Path, PathBuf};
use std::process::Command;

/// `(module, IDL, flickc arguments after the input file)`.
const MODULES: [(&str, &str, &[&str]); 6] = [
    ("pair_iiop", PAIR, &["--transport", "iiop-tcp"]),
    ("pair_mach", PAIR, &["--transport", "mach3"]),
    ("runs_mach", RUNS, &["--transport", "mach3"]),
    (
        "runs_iiop",
        RUNS,
        &["--transport", "iiop-tcp", "--disable-pass=form-chunks"],
    ),
    ("body_inline", BODY, &["--transport", "iiop-tcp"]),
    (
        "body_outline",
        BODY,
        &["--transport", "iiop-tcp", "--disable-pass=inline-marshal"],
    ),
];

const PAIR: &str = "interface Pair { long f(in long a, out double d); };\n";
const RUNS: &str = "struct T { octet a; long b[2]; };\ninterface Runs { void put(in T t); };\n";
const BODY: &str = "struct P { double d; };\ninterface Body { void f(in octet a, in P p); };\n";

const DRIVER: &str = r#"
mod pair_iiop;
mod pair_mach;
mod runs_mach;
mod runs_iiop;
mod body_inline;
mod body_outline;

use flick_runtime::buf::{MarshalBuf, MsgReader};

fn bytes(f: impl FnOnce(&mut MarshalBuf)) -> Vec<u8> {
    let mut buf = MarshalBuf::new();
    f(&mut buf);
    buf.as_slice().to_vec()
}

struct Pair;
impl pair_iiop::Server for Pair {
    fn f(&mut self, a: i32) -> (i32, f64) { (a + 1, 2.5) }
}
impl pair_mach::Server for Pair {
    fn f(&mut self, a: i32) -> (i32, f64) { (a + 1, 2.5) }
}

struct Runs<T>(Option<T>);
impl runs_mach::Server for Runs<runs_mach::T> {
    fn put(&mut self, t: runs_mach::T) { self.0 = Some(t); }
}
impl runs_iiop::Server for Runs<runs_iiop::T> {
    fn put(&mut self, t: runs_iiop::T) { self.0 = Some(t); }
}

fn main() {
    // The dispatcher's reply is the reply encoder's.
    let req = bytes(|b| pair_iiop::encode_f_request(b, 7));
    let reply = bytes(|b| pair_iiop::dispatch_by_name(b"f", &req, b, &mut Pair).expect("dispatches"));
    assert_eq!(reply, bytes(|b| pair_iiop::encode_f_reply(b, 8, 2.5)), "iiop: dispatcher reply");
    assert_eq!(pair_iiop::decode_f_reply(&mut MsgReader::new(&reply)), Ok((8, 2.5)));
    let req = bytes(|b| pair_mach::encode_f_request(b, 7));
    let reply = bytes(|b| pair_mach::dispatch(pair_mach_code(), &req, b, &mut Pair).expect("dispatches"));
    assert_eq!(reply, bytes(|b| pair_mach::encode_f_reply(b, 8, 2.5)), "mach: dispatcher reply");
    assert_eq!(pair_mach::decode_f_reply(&mut MsgReader::new(&reply)), Ok((8, 2.5)));

    // A fixed run after a byte, both ways and through the dispatcher.
    let t = runs_mach::T { a: 1, b: [-2, 3] };
    let req = bytes(|b| runs_mach::encode_put_request(b, &t));
    assert_eq!(runs_mach::decode_put_request(&mut MsgReader::new(&req)), Ok((t.clone(),)));
    let mut srv = Runs(None);
    bytes(|b| runs_mach::dispatch(runs_mach_code(), &req, b, &mut srv).expect("dispatches"));
    assert_eq!(srv.0, Some(t), "mach: the server's value");
    let t = runs_iiop::T { a: 1, b: [-2, 3] };
    let req = bytes(|b| runs_iiop::encode_put_request(b, &t));
    assert_eq!(req.len(), 12, "iiop: 3 pad bytes before the run");
    assert_eq!(runs_iiop::decode_put_request(&mut MsgReader::new(&req)), Ok((t.clone(),)));
    let mut srv = Runs(None);
    bytes(|b| runs_iiop::dispatch_by_name(b"put", &req, b, &mut srv).expect("dispatches"));
    assert_eq!(srv.0, Some(t), "iiop: the server's value");

    // An out-of-line body writes the inlined module's bytes.
    let inline = bytes(|b| body_inline::encode_f_request(b, 1, &body_inline::P { d: 2.5 }));
    let outline = bytes(|b| body_outline::encode_f_request(b, 1, &body_outline::P { d: 2.5 }));
    assert_eq!(outline, inline, "outline body against the message's base");
    assert_eq!(inline.len(), 16, "an octet, seven pad bytes and a double");
    assert_eq!(
        body_outline::decode_f_request(&mut MsgReader::new(&inline)),
        Ok((1, body_outline::P { d: 2.5 }))
    );
    println!("wire agreement: ok");
}
"#;

/// The release target directory, where tier-1's `cargo build
/// --release` leaves `flickc` and the rlibs.
fn release_dir() -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new(env!("CARGO_MANIFEST_DIR")).join("target"));
    target.join("release")
}

/// Why the test cannot run here, if it cannot.
fn missing(release: &Path) -> Option<String> {
    let rustc = Command::new("rustc").arg("--version").output();
    if !rustc.is_ok_and(|o| o.status.success()) {
        return Some("no `rustc` on PATH".into());
    }
    for file in ["flickc", "libflick_runtime.rlib"] {
        if !release.join(file).exists() {
            return Some(format!(
                "no {} (run `cargo build --release` first)",
                release.join(file).display()
            ));
        }
    }
    None
}

fn run(cmd: &mut Command, what: &str) -> Vec<u8> {
    let out = cmd
        .output()
        .unwrap_or_else(|e| panic!("{what}: cannot start: {e}"));
    assert!(
        out.status.success(),
        "{what} failed:\n{}{}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out.stdout
}

#[test]
fn both_halves_of_a_stub_module_agree_on_the_wire() {
    let release = release_dir();
    if let Some(why) = missing(&release) {
        eprintln!("wire_agreement skipped: {why}");
        return;
    }
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join("wire_agreement");
    std::fs::create_dir_all(&dir).expect("scratch directory");
    for (module, idl, args) in MODULES {
        let input = dir.join(format!("{module}.idl"));
        std::fs::write(&input, idl).expect("IDL written");
        let rust = run(
            Command::new(release.join("flickc"))
                .arg(&input)
                .args(["--side", "server", "--emit", "rust"])
                .args(args),
            module,
        );
        std::fs::write(dir.join(format!("{module}.rs")), rust).expect("module written");
    }
    // The Mach message ids the dispatchers switch on, read off the
    // modules rather than assumed.
    let mut driver = DRIVER.to_owned();
    for (module, op) in [("pair_mach", "f"), ("runs_mach", "put")] {
        let text = std::fs::read_to_string(dir.join(format!("{module}.rs"))).expect("module");
        let code = mach_code(&text, op);
        driver.push_str(&format!("fn {module}_code() -> u32 {{ {code} }}\n"));
    }
    let main = dir.join("main.rs");
    std::fs::write(&main, driver).expect("driver written");
    let deps = release.join("deps");
    let exe = dir.join("driver");
    run(
        Command::new("rustc")
            .args(["--edition", "2021", "--crate-name", "wire_agreement", "-o"])
            .arg(&exe)
            .arg("-L")
            .arg(format!("dependency={}", deps.display()))
            .arg("--extern")
            .arg(format!(
                "flick_runtime={}",
                release.join("libflick_runtime.rlib").display()
            ))
            .arg(&main),
        "rustc",
    );
    let out = run(&mut Command::new(&exe), "the driver");
    assert!(String::from_utf8_lossy(&out).contains("wire agreement: ok"));
    // The check hoisted for the octet-then-double request covers the
    // 7 pad bytes: it once reserved 13 (the octet, the double and 4
    // bytes of a discriminator no body writes) for the 16 written.
    for module in ["body_inline", "body_outline"] {
        let text = std::fs::read_to_string(dir.join(format!("{module}.rs"))).expect("module");
        let checks = flick_bench::regen::hoisted_checks(&text);
        assert!(
            checks.contains(&("encode_f_request", 16, true)),
            "{module}: hoisted {checks:?}"
        );
    }
}

/// The `dispatch` arm label of `op` in a numeric dispatcher.
fn mach_code(module: &str, op: &str) -> String {
    let begin = format!("server_begin(\"{op}\")");
    let mut label = None;
    for line in module.lines() {
        let line = line.trim();
        if let Some(code) = line.strip_suffix("u32 => {") {
            label = Some(code.to_owned());
        }
        if line.contains(&begin) {
            return label.expect("an arm label before the arm");
        }
    }
    panic!("no dispatch arm for `{op}`");
}
