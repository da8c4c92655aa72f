//! Folded stacks and a hand-rolled flamegraph SVG, over the same span
//! trees the report module builds.
//!
//! The folded format is Brendan Gregg's: one line per unique
//! root-to-span path, segments joined with `;`, followed by a sample
//! value — here the span's *self*-time in microseconds, so a frame's
//! rendered width (own value plus descendants) equals its span duration
//! minus any untraced gaps. The SVG layout is the classic icicle:
//! depth grows downward, siblings are laid out in name order, and every
//! coordinate is derived from integer microsecond sums — the output is
//! byte-deterministic for a given trace.
//!
//! No external renderer, no JavaScript: plain `<rect>` + `<title>` +
//! `<text>` elements, with all user-controlled strings XML-escaped.
//! Span names may not contain `;` (the folded separator); names the
//! recorder emits never do, and [`fold_jobs`] replaces any that slip
//! through.

use crate::report::JobProfile;
use std::collections::BTreeMap;

/// One folded stack: `root;child;…;leaf` plus its accumulated self-time
/// value in microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FoldedLine {
    /// `;`-joined path from a root span to the measured span.
    pub stack: String,
    /// Summed self-time, microseconds.
    pub value: u64,
}

/// Fold every job tree of a report into aggregated stack lines, merged
/// across jobs and sorted by stack path. Spans with zero self-time
/// still contribute a line when they have no children (so empty leaves
/// stay visible); interior zero-self spans appear implicitly as path
/// prefixes of their children.
pub fn fold_jobs(jobs: &[JobProfile]) -> Vec<FoldedLine> {
    let mut acc: BTreeMap<String, u64> = BTreeMap::new();
    for job in jobs {
        let mut stack: Vec<(usize, String)> = job
            .roots
            .iter()
            .map(|&i| (i, String::new()))
            .rev()
            .collect();
        while let Some((i, prefix)) = stack.pop() {
            let Some(span) = job.spans.get(i) else {
                continue;
            };
            let name = span.name.replace(';', ",");
            let path = if prefix.is_empty() {
                name
            } else {
                format!("{prefix};{name}")
            };
            if span.self_us > 0 || span.children.is_empty() {
                *acc.entry(path.clone()).or_insert(0) += span.self_us;
            }
            for &c in span.children.iter().rev() {
                stack.push((c, path.clone()));
            }
        }
    }
    acc.into_iter()
        .map(|(stack, value)| FoldedLine { stack, value })
        .collect()
}

/// Render folded lines as the `stack value` text format flamegraph
/// tools consume (one line each, trailing newline, sorted by stack).
pub fn folded_text(lines: &[FoldedLine]) -> String {
    let mut out = String::new();
    for l in lines {
        out.push_str(&format!("{} {}\n", l.stack, l.value));
    }
    out
}

/// A node in the merge tree the SVG lays out. `total` is own value plus
/// all descendants — the frame width.
struct Frame {
    children: BTreeMap<String, Frame>,
    own: u64,
    total: u64,
}

impl Frame {
    fn new() -> Frame {
        Frame {
            children: BTreeMap::new(),
            own: 0,
            total: 0,
        }
    }

    fn insert(&mut self, path: &str, value: u64) {
        self.total += value;
        let mut node = self;
        for seg in path.split(';') {
            node = node
                .children
                .entry(seg.to_string())
                .or_insert_with(Frame::new);
            node.total += value;
        }
        node.own += value;
    }

    fn depth(&self) -> usize {
        1 + self.children.values().map(Frame::depth).max().unwrap_or(0)
    }
}

/// Escape a string for use in XML text content and attribute values.
fn xml_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&apos;"),
            c if c.is_control() => out.push_str(&format!("&#{};", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A deterministic warm fill color for a frame name (FNV-1a over the
/// bytes, mapped into the classic flame palette).
fn color(name: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    let r = 205 + (h % 50);
    let g = 60 + ((h >> 8) % 110);
    let b = (h >> 16) % 40;
    format!("rgb({r},{g},{b})")
}

const WIDTH: f64 = 1200.0;
const FRAME_H: f64 = 17.0;
const PAD: f64 = 10.0;
/// Frames narrower than this render without a label (the `<title>`
/// tooltip still carries the full path).
const MIN_LABEL_W: f64 = 35.0;

/// Render folded lines as a self-contained flamegraph SVG (icicle
/// layout: roots on top, depth grows downward). Deterministic: sibling
/// order is lexicographic, coordinates are fixed-point formatted, and
/// no timestamps or randomness enter the output. Returns a well-formed
/// XML document even for empty input.
pub fn flamegraph_svg(lines: &[FoldedLine]) -> String {
    let mut root = Frame::new();
    for l in lines {
        if !l.stack.is_empty() {
            root.insert(&l.stack, l.value);
        }
    }
    let depth = root.depth().saturating_sub(1).max(1);
    let height = PAD * 2.0 + FRAME_H * (depth as f64 + 1.0);
    let mut out = String::new();
    out.push_str(&format!(
        "<svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" \
         viewBox=\"0 0 {WIDTH} {height}\" font-family=\"monospace\" font-size=\"11\">\n"
    ));
    out.push_str("<rect x=\"0\" y=\"0\" width=\"100%\" height=\"100%\" fill=\"#f8f8f8\"/>\n");
    let total = root.total.max(1) as f64;
    let scale = (WIDTH - PAD * 2.0) / total;
    // the synthetic "all" frame summarizing the whole profile
    emit_frame(&mut out, "all", root.total, root.total, PAD, 0, scale);
    let mut cursor = PAD;
    let mut stack: Vec<(&str, &Frame, f64, usize)> = Vec::new();
    for (name, frame) in &root.children {
        stack.push((name, frame, cursor, 1));
        cursor += frame.total as f64 * scale;
    }
    stack.reverse();
    while let Some((name, frame, x, level)) = stack.pop() {
        emit_frame(&mut out, name, frame.total, frame.own, x, level, scale);
        let mut cx = x;
        let mut kids: Vec<(&str, &Frame, f64, usize)> = Vec::new();
        for (cname, child) in &frame.children {
            kids.push((cname, child, cx, level + 1));
            cx += child.total as f64 * scale;
        }
        while let Some(k) = kids.pop() {
            stack.push(k);
        }
    }
    out.push_str("</svg>\n");
    out
}

fn emit_frame(
    out: &mut String,
    name: &str,
    total: u64,
    own: u64,
    x: f64,
    level: usize,
    scale: f64,
) {
    let w = (total as f64 * scale).max(0.1);
    let y = PAD + FRAME_H * level as f64;
    let esc = xml_escape(name);
    out.push_str(&format!(
        "<g><title>{esc} ({total} us total, {own} us self)</title>\
         <rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{:.2}\" \
         fill=\"{}\" stroke=\"#f8f8f8\" stroke-width=\"0.5\"/>",
        FRAME_H - 1.0,
        color(name),
    ));
    if w >= MIN_LABEL_W {
        // ~6.6px per glyph at font-size 11; truncate to what fits
        let fit = ((w - 6.0) / 6.6) as usize;
        let label: String = if esc.chars().count() > fit {
            let mut l: String = name.chars().take(fit.saturating_sub(1)).collect();
            l.push('…');
            xml_escape(&l)
        } else {
            esc
        };
        out.push_str(&format!(
            "<text x=\"{:.2}\" y=\"{:.2}\">{label}</text>",
            x + 3.0,
            y + FRAME_H - 5.0,
        ));
    }
    out.push_str("</g>\n");
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

    use super::*;
    use crate::record::{parse_trace, TraceEvent};
    use crate::report::build_report;

    fn replay_lines(events: &[TraceEvent]) -> Vec<FoldedLine> {
        let ndjson: String = events
            .iter()
            .map(|e| serde_json::to_string(e).unwrap() + "\n")
            .collect();
        fold_jobs(&build_report(&parse_trace(ndjson.as_bytes())).jobs)
    }

    fn scoped(name: &str, start: u64, dur: u64, parent: Option<&str>) -> TraceEvent {
        let ev = TraceEvent::span(name, start, dur).job(1, "j", 1);
        match parent {
            Some(p) => ev.parent(p),
            None => ev,
        }
    }

    #[test]
    fn folding_accumulates_self_time_per_path() {
        let lines = replay_lines(&[
            scoped("job", 0, 100, None),
            scoped("job.attempt", 10, 80, Some("job")),
            scoped("construct", 20, 50, Some("job.attempt")),
        ]);
        let text = folded_text(&lines);
        assert_eq!(
            text,
            "job 20\njob;job.attempt 30\njob;job.attempt;construct 50\n"
        );
    }

    #[test]
    fn zero_self_leaves_still_fold() {
        let lines = replay_lines(&[
            scoped("job", 0, 10, None),
            scoped("job.attempt", 0, 10, Some("job")),
        ]);
        assert_eq!(
            folded_text(&lines),
            "job;job.attempt 10\n",
            "zero-self interior span appears only as a prefix"
        );
    }

    #[test]
    fn svg_is_deterministic_and_escaped() {
        let lines = vec![
            FoldedLine {
                stack: "a<b;x&\"y\"".into(),
                value: 60,
            },
            FoldedLine {
                stack: "a<b".into(),
                value: 40,
            },
        ];
        let a = flamegraph_svg(&lines);
        assert_eq!(a, flamegraph_svg(&lines));
        assert!(a.contains("a&lt;b"));
        assert!(a.contains("x&amp;&quot;y&quot;"));
        assert!(!a.contains("x&\""), "raw specials must not survive");
        assert_eq!(a.matches("<svg").count(), 1);
        assert!(a.ends_with("</svg>\n"));
        // balanced groups: one <g> per frame ("all" + 2)
        assert_eq!(a.matches("<g>").count(), 3);
        assert_eq!(a.matches("</g>").count(), 3);
    }

    #[test]
    fn empty_input_is_well_formed() {
        let svg = flamegraph_svg(&[]);
        assert!(svg.starts_with("<svg"));
        assert!(svg.ends_with("</svg>\n"));
        assert_eq!(svg.matches("<g>").count(), 1, "just the all frame");
    }

    #[test]
    fn semicolons_in_names_cannot_forge_stack_levels() {
        let lines = replay_lines(&[scoped("a;b", 0, 10, None)]);
        assert_eq!(folded_text(&lines), "a,b 10\n");
    }
}
