//! In-memory spans, written out when the run ends.
//!
//! Two kinds of span share one file. *Client* spans are real intervals
//! on the run's clock, one root per request. *Replay* spans come from
//! pushing the workload's frames through each layer's public entry
//! point in isolation: each call is timed on its own and the tree is
//! then laid out outermost-in, children inside their parent, so that a
//! layer's self time is its span minus what its children cover.

use std::fmt::Write as _;
use std::path::Path;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one request share this.
    pub request_id: u64,
}

/// One isolated measurement and the calls it contains, before layout.
#[derive(Clone, Debug)]
pub struct Node {
    pub name: String,
    pub duration_ns: u64,
    pub children: Vec<Node>,
}

impl Node {
    pub fn leaf(name: impl Into<String>, duration_ns: u64) -> Node {
        Node::with(name, duration_ns, Vec::new())
    }

    pub fn with(name: impl Into<String>, duration_ns: u64, children: Vec<Node>) -> Node {
        Node {
            name: name.into(),
            duration_ns,
            children,
        }
    }
}

#[derive(Debug, Default)]
pub struct Trace {
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn push(
        &mut self,
        name: impl Into<String>,
        start_ns: u64,
        end_ns: u64,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns,
            parent,
            request_id,
        });
        self.spans.len() - 1
    }

    /// Lays a replay tree out from `start_ns`: children run back to
    /// back, centred in their parent. A child measured longer than its
    /// parent keeps its measured length; [`Trace::self_times`] clips.
    pub fn lay_out(
        &mut self,
        node: &Node,
        start_ns: u64,
        parent: Option<usize>,
        request_id: u64,
    ) -> usize {
        let id = self.push(
            node.name.as_str(),
            start_ns,
            start_ns + node.duration_ns,
            parent,
            request_id,
        );
        let inner: u64 = node.children.iter().map(|c| c.duration_ns).sum();
        let mut cursor = start_ns + node.duration_ns.saturating_sub(inner) / 2;
        for child in &node.children {
            self.lay_out(child, cursor, Some(id), request_id);
            cursor += child.duration_ns;
        }
        id
    }

    /// Every span's self time: its duration minus the part of its
    /// interval that its child spans cover (overlapping children are
    /// counted once, overhanging ones clipped).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                let within = &self.spans[parent];
                let (start, end) = (
                    span.start_ns.max(within.start_ns),
                    span.end_ns.min(within.end_ns),
                );
                if start < end {
                    children[parent].push((start, end));
                }
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(span, mut covered)| {
                covered.sort_unstable();
                let mut total = 0;
                let mut reach = span.start_ns;
                for (start, end) in covered {
                    total += end.saturating_sub(start.max(reach));
                    reach = reach.max(end);
                }
                (span.end_ns - span.start_ns).saturating_sub(total)
            })
            .collect()
    }

    /// The span at the top of `id`'s tree.
    pub fn root_of(&self, mut id: usize) -> usize {
        while let Some(parent) = self.spans[id].parent {
            id = parent;
        }
        id
    }

    /// Writes `{"provenance": …, "spans": […]}`; `provenance` is a JSON
    /// object already rendered.
    pub fn write_json(&self, path: &Path, provenance: &str) -> std::io::Result<()> {
        let mut out = String::with_capacity(self.spans.len() * 96 + provenance.len() + 64);
        let _ = write!(out, "{{\"provenance\": {provenance},\n\"spans\": [");
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let _ = write!(
                out,
                "{}\n{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"request_id\": {}}}",
                if id == 0 { "" } else { "," },
                span.name,
                span.start_ns,
                span.end_ns,
                span.request_id,
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_what_children_cover() {
        let mut trace = Trace::default();
        let root = trace.push("request", 100, 200, None, 7);
        let a = trace.push("a", 110, 140, Some(root), 7);
        trace.push("b", 150, 170, Some(root), 7);
        trace.push("a.inner", 115, 125, Some(a), 7);
        assert_eq!(trace.self_times()[root], 100 - 30 - 20);
        assert_eq!(trace.self_times()[a], 30 - 10);
        assert_eq!(trace.root_of(3), root);
        assert_eq!(trace.root_of(root), root);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let mut trace = Trace::default();
        let root = trace.push("request", 0, 100, None, 1);
        trace.push("x", 10, 60, Some(root), 1);
        trace.push("y", 40, 80, Some(root), 1); // overlaps x on [40, 60)
        trace.push("z", 90, 150, Some(root), 1); // overhangs the parent
        trace.push("elsewhere", 300, 400, Some(root), 1); // wholly outside
        assert_eq!(trace.self_times()[root], 100 - 70 - 10);
    }

    #[test]
    fn replay_trees_nest_children_inside_their_parent() {
        let tree = Node::with(
            "outer",
            1_000,
            vec![
                Node::with("mid", 600, vec![Node::leaf("leaf", 200)]),
                Node::leaf("side", 100),
            ],
        );
        let mut trace = Trace::default();
        let root = trace.lay_out(&tree, 5_000, None, 42);
        let by_name = |name: &str| trace.spans.iter().position(|s| s.name == name).unwrap();
        let (mid, leaf, side) = (by_name("mid"), by_name("leaf"), by_name("side"));
        assert_eq!(trace.spans[root].end_ns - trace.spans[root].start_ns, 1_000);
        assert_eq!(trace.spans[mid].parent, Some(root));
        assert_eq!(trace.spans[leaf].parent, Some(mid));
        assert!(trace.spans[mid].start_ns >= 5_000 && trace.spans[side].end_ns <= 6_000);
        assert_eq!(trace.spans[side].start_ns, trace.spans[mid].end_ns);
        assert!(trace.spans.iter().all(|s| s.request_id == 42));
        assert_eq!(trace.self_times()[root], 300);
        assert_eq!(trace.self_times()[mid], 400);
        assert_eq!(trace.self_times()[leaf], 200);
        // A child measured longer than its parent leaves no negative self time.
        let noisy = Node::with("p", 100, vec![Node::leaf("c", 130)]);
        let p = trace.lay_out(&noisy, 0, None, 43);
        assert_eq!(trace.self_times()[p], 0);
    }
}
