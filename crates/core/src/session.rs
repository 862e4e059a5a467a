//! Incremental compile sessions.
//!
//! A [`CompileSession`] owns a [`Compiler`] plus a per-stub
//! [`PlanCache`], and keeps both alive across compiles.  The first
//! compile of a source populates the cache; a [`recompile`] after an
//! edit replans only the stubs whose content keys changed — everything
//! else is restored from cache, and the output is byte-identical to a
//! cold compile.  The key covers the stub's structural hash, the wire
//! encoding, and the pass-pipeline fingerprint, so reconfiguring the
//! optimizer between compiles invalidates exactly what it must.
//!
//! [`recompile`]: CompileSession::recompile

use flick_backend::{CacheStats, PlanCache};
use flick_pres::Side;

use crate::{CompileError, CompileOutput, Compiler};

/// A compiler plus the memoized per-stub planning state it accumulates
/// across compiles.
#[derive(Debug)]
pub struct CompileSession {
    compiler: Compiler,
    cache: PlanCache,
}

impl CompileSession {
    /// A session with an empty cache, which lives as long as the
    /// session does.
    #[must_use]
    pub fn new(compiler: Compiler) -> CompileSession {
        CompileSession {
            compiler,
            cache: PlanCache::new(),
        }
    }

    /// The session's compiler configuration.
    #[must_use]
    pub fn compiler(&self) -> &Compiler {
        &self.compiler
    }

    /// Mutable access for reconfiguring between compiles.  Changing
    /// anything output-affecting (encoding, the pass set) changes the
    /// content keys, so affected stubs simply miss on the next compile
    /// — no explicit invalidation step exists or is needed.
    pub fn compiler_mut(&mut self) -> &mut Compiler {
        &mut self.compiler
    }

    /// Compiles `text`, reusing every cached stub plan whose content
    /// key still matches.
    ///
    /// # Errors
    /// Same as [`Compiler::compile_source`].
    pub fn compile(
        &mut self,
        file_name: &str,
        text: &str,
        iface: &str,
        side: Side,
    ) -> Result<CompileOutput, CompileError> {
        self.compiler
            .compile_with(file_name, text, iface, side, Some(&mut self.cache))
    }

    /// Recompiles after an edit: only stubs whose content keys changed
    /// are replanned (the [`CompileReport`]'s `cache.stub.*` counters
    /// say how many).  Semantically identical to [`compile`] — the
    /// name marks intent at call sites.
    ///
    /// # Errors
    /// Same as [`Compiler::compile_source`].
    ///
    /// [`CompileReport`]: crate::CompileReport
    /// [`compile`]: CompileSession::compile
    pub fn recompile(
        &mut self,
        file_name: &str,
        text: &str,
        iface: &str,
        side: Side,
    ) -> Result<CompileOutput, CompileError> {
        self.compile(file_name, text, iface, side)
    }

    /// Lifetime hit/miss/eviction counters for this session's cache.
    #[must_use]
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }
}
