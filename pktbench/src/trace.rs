//! The traced run's span recorder: one span per layer call per step, the
//! step's `batch` span as their parent, kept in memory and written out
//! when the run ends.

use crate::lane::{Hooks, Layer, LAYER_NAMES};
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Spans of one step share `step` (the batch id); every
/// span but `batch` has that step's `batch` span as parent.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer called.
    pub layer: Layer,
    /// Step (batch id).
    pub step: u64,
    /// Start, nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder's origin.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans as [`Hooks`].
pub struct Recorder {
    origin: Instant,
    /// Spans in completion order (a step's children precede its batch).
    pub spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new(capacity: usize) -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    /// Self time per layer (duration minus the part its child spans
    /// cover) and span count per layer, indexed by `Layer as usize`.
    pub fn self_times(&self) -> ([u64; 7], [u64; 7]) {
        let mut total = [0u64; 7];
        let mut count = [0u64; 7];
        let mut children = 0u64;
        for s in &self.spans {
            let l = s.layer as usize;
            count[l] += 1;
            if s.layer == Layer::Batch {
                total[l] += s.ns().saturating_sub(children);
                children = 0;
            } else {
                total[l] += s.ns();
                children += s.ns();
            }
        }
        (total, count)
    }

    /// Summed duration of the top-level (`batch`) spans.
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.layer == Layer::Batch)
            .map(Span::ns)
            .sum()
    }

    /// Write every span as a tab-separated line: id, batch, name, parent
    /// id (`-` for a root), start and end in ns.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "id\tbatch\tname\tparent\tstart_ns\tend_ns")?;
        // Children complete before their batch span, so a step's root is
        // the next `batch` span at or after each child.
        let mut root = vec![0usize; self.spans.len()];
        let mut next_root = self.spans.len();
        for (i, s) in self.spans.iter().enumerate().rev() {
            if s.layer == Layer::Batch {
                next_root = i;
            }
            root[i] = next_root;
        }
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.layer == Layer::Batch || root[i] >= self.spans.len() {
                "-".to_string()
            } else {
                root[i].to_string()
            };
            writeln!(
                f,
                "{i}\t{}\t{}\t{parent}\t{}\t{}",
                s.step, LAYER_NAMES[s.layer as usize], s.start_ns, s.end_ns
            )?;
        }
        f.flush()
    }
}

impl Hooks for Recorder {
    const TRACED: bool = true;

    fn span(&mut self, layer: Layer, step: u64, t0: Instant, t1: Instant) {
        self.spans.push(Span {
            layer,
            step,
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            end_ns: t1.duration_since(self.origin).as_nanos() as u64,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children_from_the_batch_span() {
        let mut r = Recorder::new(8);
        let t = r.origin;
        let at = |ns| t + Duration::from_nanos(ns);
        r.span(Layer::Parse, 0, at(10), at(20));
        r.span(Layer::Engine, 0, at(20), at(50));
        r.span(Layer::Batch, 0, at(5), at(60));
        let (total, count) = r.self_times();
        assert_eq!(total[Layer::Batch as usize], 55 - 40);
        assert_eq!(total[Layer::Engine as usize], 30);
        assert_eq!(count[Layer::Parse as usize], 1);
        assert_eq!(r.top_level_ns(), 55);
    }
}
