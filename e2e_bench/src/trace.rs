//! The benchmark's own span recorder: one span around each call into a
//! layer, kept in memory and written out as Chrome trace-event JSON when
//! the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// The request this span serves; every span of one request shares it.
    pub req: u64,
}

/// Records spans when on; when off, [`Tracer::span`] only runs its body,
/// which gives the untraced pass the tracing overhead is priced against.
pub struct Tracer {
    on: bool,
    t0: Instant,
    req: u64,
    open: Vec<usize>,
    pub spans: Vec<Span>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            t0: Instant::now(),
            req: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Start attributing spans to request `id`.
    pub fn request(&mut self, id: u64) {
        self.req = id;
    }

    /// Run `f` inside a span named `name`, nested under the open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        if !self.on {
            return f(self);
        }
        let idx = self.spans.len();
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            req: self.req,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now();
        out
    }

    fn children_ns(&self) -> Vec<u64> {
        let mut c = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                c[p] += s.end_ns - s.start_ns;
            }
        }
        c
    }

    /// Self time per span name: each span's duration minus the part its
    /// child spans cover, summed by name.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let children = self.children_ns();
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(children) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    /// For each top-level span named `name`: the summed duration of its
    /// direct children — the in-process stage time of one request.
    pub fn stage_sums(&self, name: &str) -> Vec<f64> {
        let children = self.children_ns();
        self.spans
            .iter()
            .zip(children)
            .filter(|(s, _)| s.parent.is_none() && s.name == name)
            .map(|(_, c)| c as f64)
            .collect()
    }

    /// Chrome trace-event JSON: one process per workload (`pid`, named by
    /// a metadata event), complete (`X`) events with the request id and
    /// parent span in `args`, and the host stamp in `otherData`.
    pub fn chrome_json(&self, pid: u32, workload: &str, stamp: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        let _ = write!(
            out,
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{pid},\"tid\":1,\"args\":{{\"name\":\"{workload}\"}}}}"
        );
        for (i, s) in self.spans.iter().enumerate() {
            let _ = write!(
                out,
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":{pid},\"tid\":1,\
                 \"args\":{{\"span\":{i},\"parent\":{},\"req\":{}}}}}",
                s.name,
                s.name.split('.').next().unwrap_or(""),
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                s.parent.map_or_else(|| "null".into(), |p| p.to_string()),
                s.req
            );
        }
        let _ = write!(
            out,
            "\n],\"displayTimeUnit\":\"ms\",\"otherData\":{{\"stamp\":\"{}\"}}}}\n",
            bvl_lab::jsonio::escape(stamp)
        );
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_exclude_children_and_export_keeps_ids() {
        let mut t = Tracer::new(true);
        t.request(7);
        t.span("req.run", |t| {
            t.span("scenario.parse", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        let own = t.self_ns();
        assert!(own["scenario.parse"] >= 2_000_000);
        assert!(own["req.run"] < own["scenario.parse"]);
        assert_eq!(t.stage_sums("req.run").len(), 1);
        let json = t.chrome_json(1, "cold_grid", "nproc=2");
        assert!(json.contains("\"req\":7") && json.contains("\"parent\":0"));
        let mut off = Tracer::new(false);
        assert_eq!(off.span("x", |_| 3), 3);
        assert!(off.spans.is_empty());
    }
}
