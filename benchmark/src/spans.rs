//! Spans around the calls the driver makes into the program under test.
//!
//! The driver is generic over a [`Tracer`]. [`NoTrace`] compiles to
//! nothing, so the end-to-end run pays no tracing cost; [`SpanRec`]
//! reads the clock on both sides of every call, aggregates per
//! (segment, call site), keeps the first [`KEPT_PER_SITE`] calls of each
//! site individually, holds everything in memory and writes it out when
//! the run ends.

use std::time::Instant;

use crate::json::Value;

/// Individual spans kept per call site.
pub const KEPT_PER_SITE: usize = 4096;

/// A place where the driver calls into a layer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
#[repr(usize)]
pub enum Site {
    /// `norman::Host::new`.
    HostNew,
    /// `Host::update_policy` during set-up (first commit).
    SetupCommit,
    /// `Host::connect`, one per flow.
    Connect,
    /// `pkt::PacketBuilder::build_in`, one per pool frame.
    Build,
    /// The benchmark's own seeded schedule generation.
    Gen,
    /// `Host::pump`, one per burst.
    Pump,
    /// `Host::app_recv`, one per frame.
    AppRecv,
    /// `Host::deliver_frame`, one per frame.
    DeliverFrame,
    /// `oskernel::NetStack::recv` on a kernel socket.
    StackRecv,
    /// `Host::app_send`, one per frame.
    AppSend,
    /// `Host::pump_tx`, one per frame.
    PumpTx,
    /// `Host::update_policy` during the run (live reconfiguration).
    UpdatePolicy,
}

impl Site {
    /// Every site, in declaration order.
    pub const ALL: [Site; 12] = [
        Site::HostNew,
        Site::SetupCommit,
        Site::Connect,
        Site::Build,
        Site::Gen,
        Site::Pump,
        Site::AppRecv,
        Site::DeliverFrame,
        Site::StackRecv,
        Site::AppSend,
        Site::PumpTx,
        Site::UpdatePolicy,
    ];

    /// The span name written to the spans file.
    pub fn name(self) -> &'static str {
        match self {
            Site::HostNew => "norman.host_new",
            Site::SetupCommit => "norman.setup_commit",
            Site::Connect => "norman.connect",
            Site::Build => "pkt.build_in",
            Site::Gen => "workloads.gen",
            Site::Pump => "norman.pump",
            Site::AppRecv => "norman.app_recv",
            Site::DeliverFrame => "norman.deliver_frame",
            Site::StackRecv => "oskernel.stack_recv",
            Site::AppSend => "norman.app_send",
            Site::PumpTx => "norman.pump_tx",
            Site::UpdatePolicy => "norman.update_policy",
        }
    }
}

const SITES: usize = Site::ALL.len();

/// What the driver calls around each facade call.
pub trait Tracer {
    /// Whatever `start` must hand to `stop`.
    type Mark: Copy;
    /// Just before the call.
    fn start(&mut self) -> Self::Mark;
    /// Just after the call.
    fn stop(&mut self, site: Site, mark: Self::Mark);
    /// A segment opens: spans until [`Tracer::end_segment`] are its
    /// children.
    fn begin_segment(&mut self, _id: u32) {}
    /// The open segment closes.
    fn end_segment(&mut self) {}
}

/// Tracing off: both hooks are empty and inline away.
pub struct NoTrace;

impl Tracer for NoTrace {
    type Mark = ();
    #[inline(always)]
    fn start(&mut self) {}
    #[inline(always)]
    fn stop(&mut self, _site: Site, _mark: ()) {}
}

/// Calls and total time of one site within one segment.
#[derive(Clone, Copy, Debug, Default)]
pub struct SiteAgg {
    /// Spans recorded.
    pub calls: u64,
    /// Their summed duration.
    pub ns: u64,
}

/// One individually kept span.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The enclosing segment span (`None` during set-up).
    pub segment: Option<u32>,
}

/// One closed segment: the parent span of every call made inside it.
#[derive(Clone, Debug)]
pub struct SegmentSpans {
    /// Segment id (warm-up segments count too).
    pub id: u32,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Per-site aggregates.
    pub sites: [SiteAgg; SITES],
}

impl SegmentSpans {
    /// Segment wall time.
    pub fn wall_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The aggregate of one site.
    pub fn site(&self, site: Site) -> SiteAgg {
        self.sites[site as usize]
    }

    /// Time inside facade spans.
    pub fn span_ns(&self) -> u64 {
        self.sites.iter().map(|s| s.ns).sum()
    }

    /// Facade calls made.
    pub fn calls(&self) -> u64 {
        self.sites.iter().map(|s| s.calls).sum()
    }
}

/// The in-memory span recorder.
pub struct SpanRec {
    origin: Instant,
    open: Option<(u32, u64)>,
    cur: [SiteAgg; SITES],
    /// Aggregates of spans recorded outside any segment (set-up).
    pub setup: [SiteAgg; SITES],
    /// Closed segments, in order.
    pub segments: Vec<SegmentSpans>,
    /// The first [`KEPT_PER_SITE`] spans of each site.
    pub kept: Vec<Vec<Span>>,
}

impl Default for SpanRec {
    fn default() -> SpanRec {
        SpanRec::new()
    }
}

impl SpanRec {
    /// An empty recorder; span times count from now.
    pub fn new() -> SpanRec {
        SpanRec {
            origin: Instant::now(),
            open: None,
            cur: [SiteAgg::default(); SITES],
            setup: [SiteAgg::default(); SITES],
            segments: Vec::new(),
            kept: (0..SITES)
                .map(|_| Vec::with_capacity(KEPT_PER_SITE))
                .collect(),
        }
    }

    fn since_origin(&self, t: Instant) -> u64 {
        t.duration_since(self.origin).as_nanos() as u64
    }

    /// The kept individual durations of one site, in nanoseconds.
    pub fn kept_durations(&self, site: Site) -> Vec<f64> {
        self.kept[site as usize]
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .collect()
    }

    /// Measures what one span costs on this machine right now:
    /// `(wall ns per empty span, ns the recorder books to it)`. The
    /// difference lands in the gaps between spans.
    pub fn calibrate() -> (f64, f64) {
        const N: u64 = 200_000;
        let mut best = (f64::INFINITY, f64::INFINITY);
        for _ in 0..5 {
            let mut rec = SpanRec::new();
            rec.begin_segment(0);
            let start = Instant::now();
            for _ in 0..N {
                let m = rec.start();
                rec.stop(Site::AppRecv, m);
            }
            let wall = start.elapsed().as_nanos() as f64 / N as f64;
            rec.end_segment();
            let booked = rec.segments[0].site(Site::AppRecv).ns as f64 / N as f64;
            if wall < best.0 {
                best = (wall, booked);
            }
        }
        best
    }

    /// The spans file: every segment's per-site aggregates plus the
    /// individually kept spans (name, start, end, parent).
    pub fn to_json(&self, workload: &str) -> Value {
        let agg = |sites: &[SiteAgg; SITES]| {
            let mut o = Value::obj();
            for site in Site::ALL {
                let a = sites[site as usize];
                if a.calls > 0 {
                    o.set(
                        site.name(),
                        Value::obj().with("calls", a.calls).with("ns", a.ns),
                    );
                }
            }
            o
        };
        let segments: Vec<Value> = self
            .segments
            .iter()
            .map(|s| {
                Value::obj()
                    .with("name", "segment")
                    .with("id", u64::from(s.id))
                    .with("parent", "run")
                    .with("start_ns", s.start_ns)
                    .with("end_ns", s.end_ns)
                    .with("sites", agg(&s.sites))
            })
            .collect();
        let mut kept = Vec::new();
        for site in Site::ALL {
            for s in &self.kept[site as usize] {
                kept.push(
                    Value::obj()
                        .with("name", site.name())
                        .with("start_ns", s.start_ns)
                        .with("end_ns", s.end_ns)
                        .with(
                            "parent",
                            match s.segment {
                                Some(id) => format!("segment:{id}"),
                                None => "setup".to_string(),
                            },
                        ),
                );
            }
        }
        Value::obj()
            .with("workload", workload)
            .with("kept_per_site", KEPT_PER_SITE)
            .with("setup", agg(&self.setup))
            .with("segments", segments)
            .with("spans", kept)
    }
}

impl Tracer for SpanRec {
    type Mark = Instant;

    #[inline]
    fn start(&mut self) -> Instant {
        Instant::now()
    }

    #[inline]
    fn stop(&mut self, site: Site, mark: Instant) {
        let end = Instant::now();
        let ns = end.duration_since(mark).as_nanos() as u64;
        let agg = match self.open {
            Some(_) => &mut self.cur[site as usize],
            None => &mut self.setup[site as usize],
        };
        agg.calls += 1;
        agg.ns += ns;
        let kept = &mut self.kept[site as usize];
        if kept.len() < KEPT_PER_SITE {
            let start_ns = mark.duration_since(self.origin).as_nanos() as u64;
            kept.push(Span {
                start_ns,
                end_ns: start_ns + ns,
                segment: self.open.map(|(id, _)| id),
            });
        }
    }

    fn begin_segment(&mut self, id: u32) {
        self.cur = [SiteAgg::default(); SITES];
        self.open = Some((id, self.since_origin(Instant::now())));
    }

    fn end_segment(&mut self) {
        let end_ns = self.since_origin(Instant::now());
        let (id, start_ns) = self.open.take().expect("a segment is open");
        self.segments.push(SegmentSpans {
            id,
            start_ns,
            end_ns,
            sites: self.cur,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aggregates_per_segment_and_keeps_the_first_spans() {
        let mut rec = SpanRec::new();
        let m = rec.start();
        rec.stop(Site::HostNew, m);
        for seg in 0..2u32 {
            rec.begin_segment(seg);
            for _ in 0..3000 {
                let m = rec.start();
                rec.stop(Site::AppRecv, m);
            }
            rec.end_segment();
        }
        assert_eq!(rec.setup[Site::HostNew as usize].calls, 1);
        assert_eq!(rec.segments.len(), 2);
        assert_eq!(rec.segments[1].site(Site::AppRecv).calls, 3000);
        assert_eq!(rec.segments[1].calls(), 3000);
        assert!(rec.segments[0].wall_ns() >= rec.segments[0].span_ns());
        assert_eq!(rec.kept[Site::AppRecv as usize].len(), KEPT_PER_SITE);
        assert_eq!(rec.kept[Site::AppRecv as usize][3500].segment, Some(1));
        assert_eq!(rec.kept[Site::HostNew as usize][0].segment, None);
        let json = rec.to_json("w").to_line();
        assert!(json.contains("\"parent\": \"segment:1\""));
        assert!(json.contains("\"parent\": \"setup\""));
    }
}
