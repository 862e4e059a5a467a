//! Workload builders producing each generated module's presented
//! types.
//!
//! The generated modules define structurally identical `Point` /
//! `Rect` / `Stat` / `Dirent` types; this macro instantiates the same
//! deterministic builders (matching
//! `flick_baselines::types::workload`) against each module's types so
//! Flick stubs and every baseline marshal byte-identical data.

/// Instantiates `rects(n)` / `dirents(n)` builders for one generated
/// module.
macro_rules! workloads_for {
    ($name:ident, $module:path) => {
        /// Workload builders typed for one generated stub module.
        pub mod $name {
            use $module as m;

            /// `n` integers, identical to the baseline workload.
            #[must_use]
            pub fn ints(n: usize) -> Vec<i32> {
                flick_baselines::types::workload::ints(n)
            }

            /// `n` rectangles in the module's presented type.
            #[must_use]
            pub fn rects(n: usize) -> Vec<m::Rect> {
                flick_baselines::types::workload::rects(n)
                    .into_iter()
                    .map(|r| m::Rect {
                        min: m::Point {
                            x: r.min.x,
                            y: r.min.y,
                        },
                        max: m::Point {
                            x: r.max.x,
                            y: r.max.y,
                        },
                    })
                    .collect()
            }

            /// `n` 256-encoded-byte directory entries in the module's
            /// presented type.
            #[must_use]
            pub fn dirents(n: usize) -> Vec<m::Dirent> {
                flick_baselines::types::workload::dirents(n)
                    .into_iter()
                    .map(|d| m::Dirent {
                        name: d.name,
                        info: m::Stat {
                            fields: d.info.fields,
                            tag: d.info.tag,
                        },
                    })
                    .collect()
            }

            /// One deterministic 136-byte stat record (the first
            /// directory entry's) for the `echo_stat` round trip.
            #[must_use]
            pub fn stat() -> m::Stat {
                let d = flick_baselines::types::workload::dirents(1).remove(0);
                m::Stat {
                    fields: d.info.fields,
                    tag: d.info.tag,
                }
            }
        }
    };
}

workloads_for!(onc, crate::generated::onc_bench);
workloads_for!(iiop, crate::generated::iiop_bench);
workloads_for!(mach, crate::generated::mach_bench);
workloads_for!(fluke, crate::generated::fluke_bench);
workloads_for!(onc_noopt, crate::generated::onc_noopt);
workloads_for!(onc_nohoist, crate::generated::onc_nohoist);
workloads_for!(onc_nochunk, crate::generated::onc_nochunk);
workloads_for!(onc_noinline, crate::generated::onc_noinline);
workloads_for!(iiop_nomemcpy, crate::generated::iiop_nomemcpy);
workloads_for!(onc_nodeadslot, crate::generated::onc_nodeadslot);
workloads_for!(iiop_noprefix, crate::generated::iiop_noprefix);
workloads_for!(onc_noalias, crate::generated::onc_noalias);

#[cfg(test)]
mod tests {
    #[test]
    fn builders_agree_with_baseline_workload() {
        let ours = super::onc::rects(4);
        let base = flick_baselines::types::workload::rects(4);
        for (a, b) in ours.iter().zip(base.iter()) {
            assert_eq!(
                (a.min.x, a.min.y, a.max.x, a.max.y),
                (b.min.x, b.min.y, b.max.x, b.max.y)
            );
        }
        let ours = super::onc::dirents(2);
        let base = flick_baselines::types::workload::dirents(2);
        for (a, b) in ours.iter().zip(base.iter()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.info.fields, b.info.fields);
            assert_eq!(a.info.tag, b.info.tag);
        }
    }
}
