//! Database recovery: a B+-tree whose page splits are logged logically
//! (§1's database example).
//!
//! A split copies half of a full page `X` to a new page `Y`. Logged
//! logically the record carries only the two page ids — "a logical split
//! operation avoids the need to log the contents of the new B-tree node,
//! which is required when using the simpler physiological operation". The
//! split operation reads `X` and writes `{X, Y}`: `X` is exposed
//! (read-and-written), `Y` is a blind write — precisely the multi-object
//! write-set shape of Figure 7.
//!
//! Pages are recoverable objects; the tree's root pointer and page
//! allocator live in a tiny metadata object maintained with physical
//! writes.

use llog_core::Engine;
use llog_ops::{builtin, OpKind, Transform, TransformFn, TransformRegistry};
use llog_types::{FnId, LlogError, ObjectId, Result, Value};

use std::sync::Arc;

/// Insert a `(key, value)` into a leaf page.
pub const BT_INSERT: FnId = FnId(100);
/// Split a page into (lower, upper) halves.
pub const BT_SPLIT: FnId = FnId(101);
/// Insert a `(separator, child)` into an internal page.
pub const BT_INSERT_CHILD: FnId = FnId(102);
/// Remove a key from a leaf page.
pub const BT_REMOVE: FnId = FnId(103);
/// Merge two leaf pages into the left one (logical: reads both, writes one).
pub const BT_MERGE: FnId = FnId(104);
/// Remove a `(separator, child)` entry from an internal page.
pub const BT_REMOVE_CHILD: FnId = FnId(105);

const PAGE_REGION: u64 = 0x4000_0000_0000_0000;

fn page_object(page_no: u64) -> ObjectId {
    ObjectId(PAGE_REGION | page_no)
}

// ---------------------------------------------------------------------
// Page codec
// ---------------------------------------------------------------------

/// Decoded page contents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Page {
    /// Sorted `(key, value)` entries.
    Leaf(Vec<(u64, Vec<u8>)>),
    /// `child0` plus sorted `(separator, child)` entries; keys `< sep[0]`
    /// route to `child0`, keys `≥ sep[i]` (and below the next separator)
    /// to `child[i]`.
    Internal {
        /// Child for keys below the first separator.
        child0: u64,
        /// Sorted `(separator, child)` routing entries.
        seps: Vec<(u64, u64)>,
    },
}

impl Page {
    /// Serialize the page to its on-"disk" byte form.
    pub fn encode(&self) -> Value {
        let mut out = Vec::new();
        match self {
            Page::Leaf(entries) => {
                out.push(0u8);
                out.extend_from_slice(&(entries.len() as u16).to_le_bytes());
                for (k, v) in entries {
                    out.extend_from_slice(&k.to_le_bytes());
                    out.extend_from_slice(&(v.len() as u16).to_le_bytes());
                    out.extend_from_slice(v);
                }
            }
            Page::Internal { child0, seps } => {
                out.push(1u8);
                out.extend_from_slice(&(seps.len() as u16).to_le_bytes());
                out.extend_from_slice(&child0.to_le_bytes());
                for (s, c) in seps {
                    out.extend_from_slice(&s.to_le_bytes());
                    out.extend_from_slice(&c.to_le_bytes());
                }
            }
        }
        Value::from(out)
    }

    /// Parse a page (empty bytes = empty leaf).
    pub fn decode(bytes: &[u8]) -> Result<Page> {
        let err = |reason: &str| LlogError::Codec {
            reason: format!("btree page: {reason}"),
        };
        if bytes.is_empty() {
            // A never-written object decodes as an empty leaf.
            return Ok(Page::Leaf(Vec::new()));
        }
        let kind = bytes[0];
        let n = u16::from_le_bytes(
            bytes
                .get(1..3)
                .ok_or_else(|| err("truncated count"))?
                .try_into()
                .unwrap(),
        ) as usize;
        let mut at = 3;
        match kind {
            0 => {
                let mut entries = Vec::with_capacity(n);
                for _ in 0..n {
                    let k = u64::from_le_bytes(
                        bytes
                            .get(at..at + 8)
                            .ok_or_else(|| err("truncated key"))?
                            .try_into()
                            .unwrap(),
                    );
                    at += 8;
                    let len = u16::from_le_bytes(
                        bytes
                            .get(at..at + 2)
                            .ok_or_else(|| err("truncated value len"))?
                            .try_into()
                            .unwrap(),
                    ) as usize;
                    at += 2;
                    let v = bytes
                        .get(at..at + len)
                        .ok_or_else(|| err("truncated value"))?
                        .to_vec();
                    at += len;
                    entries.push((k, v));
                }
                Ok(Page::Leaf(entries))
            }
            1 => {
                let child0 = u64::from_le_bytes(
                    bytes
                        .get(at..at + 8)
                        .ok_or_else(|| err("truncated child0"))?
                        .try_into()
                        .unwrap(),
                );
                at += 8;
                let mut seps = Vec::with_capacity(n);
                for _ in 0..n {
                    let s = u64::from_le_bytes(
                        bytes
                            .get(at..at + 8)
                            .ok_or_else(|| err("truncated separator"))?
                            .try_into()
                            .unwrap(),
                    );
                    at += 8;
                    let c = u64::from_le_bytes(
                        bytes
                            .get(at..at + 8)
                            .ok_or_else(|| err("truncated child"))?
                            .try_into()
                            .unwrap(),
                    );
                    at += 8;
                    seps.push((s, c));
                }
                Ok(Page::Internal { child0, seps })
            }
            k => Err(err(&format!("unknown page kind {k}"))),
        }
    }

    fn len(&self) -> usize {
        match self {
            Page::Leaf(e) => e.len(),
            Page::Internal { seps, .. } => seps.len(),
        }
    }
}

// ---------------------------------------------------------------------
// Transforms (registered for replay)
// ---------------------------------------------------------------------

struct InsertT;
impl TransformFn for InsertT {
    fn name(&self) -> &'static str {
        "bt_insert"
    }
    fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        let err = |reason: &str| LlogError::Codec {
            reason: reason.to_string(),
        };
        if inputs.len() != 1 || n_outputs != 1 {
            return Err(err("bt_insert is single-page"));
        }
        if params.len() < 10 {
            return Err(err("bt_insert params truncated"));
        }
        let key = u64::from_le_bytes(params[0..8].try_into().unwrap());
        let len = u16::from_le_bytes(params[8..10].try_into().unwrap()) as usize;
        if params.len() < 10 + len {
            return Err(err("bt_insert value truncated"));
        }
        let value = params[10..10 + len].to_vec();
        let Page::Leaf(mut entries) = Page::decode(inputs[0].as_bytes())? else {
            return Err(err("bt_insert applied to internal page"));
        };
        match entries.binary_search_by_key(&key, |e| e.0) {
            Ok(i) => entries[i].1 = value,
            Err(i) => entries.insert(i, (key, value)),
        }
        Ok(vec![Page::Leaf(entries).encode()])
    }
}

struct SplitT;
impl TransformFn for SplitT {
    fn name(&self) -> &'static str {
        "bt_split"
    }
    fn apply(&self, _params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        let err = |reason: &str| LlogError::Codec {
            reason: reason.to_string(),
        };
        if inputs.len() != 1 || n_outputs != 2 {
            return Err(err("bt_split takes one page, produces two"));
        }
        match Page::decode(inputs[0].as_bytes())? {
            Page::Leaf(entries) => {
                if entries.len() < 2 {
                    return Err(LlogError::NotApplicable {
                        op: llog_types::OpId(0),
                        reason: "splitting a page with fewer than 2 entries".into(),
                    });
                }
                let mid = entries.len() / 2;
                let upper = entries[mid..].to_vec();
                let lower = entries[..mid].to_vec();
                Ok(vec![Page::Leaf(lower).encode(), Page::Leaf(upper).encode()])
            }
            Page::Internal { child0, seps } => {
                if seps.len() < 3 {
                    return Err(LlogError::NotApplicable {
                        op: llog_types::OpId(0),
                        reason: "splitting an internal page with fewer than 3 separators".into(),
                    });
                }
                let mid = seps.len() / 2;
                // The middle separator moves up (its key reappears as the
                // parent separator, computed by the caller); its child
                // becomes the new page's child0.
                let lower = Page::Internal {
                    child0,
                    seps: seps[..mid].to_vec(),
                };
                let upper = Page::Internal {
                    child0: seps[mid].1,
                    seps: seps[mid + 1..].to_vec(),
                };
                Ok(vec![lower.encode(), upper.encode()])
            }
        }
    }
}

struct InsertChildT;
impl TransformFn for InsertChildT {
    fn name(&self) -> &'static str {
        "bt_insert_child"
    }
    fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        let err = |reason: &str| LlogError::Codec {
            reason: reason.to_string(),
        };
        if inputs.len() != 1 || n_outputs != 1 || params.len() != 16 {
            return Err(err("bt_insert_child arity/params"));
        }
        let sep = u64::from_le_bytes(params[0..8].try_into().unwrap());
        let child = u64::from_le_bytes(params[8..16].try_into().unwrap());
        let Page::Internal { child0, mut seps } = Page::decode(inputs[0].as_bytes())? else {
            return Err(err("bt_insert_child applied to leaf"));
        };
        match seps.binary_search_by_key(&sep, |e| e.0) {
            Ok(_) => {
                return Err(LlogError::NotApplicable {
                    op: llog_types::OpId(0),
                    reason: "duplicate separator".into(),
                })
            }
            Err(i) => seps.insert(i, (sep, child)),
        }
        Ok(vec![Page::Internal { child0, seps }.encode()])
    }
}

struct RemoveT;
impl TransformFn for RemoveT {
    fn name(&self) -> &'static str {
        "bt_remove"
    }
    fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        let err = |reason: &str| LlogError::Codec {
            reason: reason.to_string(),
        };
        if inputs.len() != 1 || n_outputs != 1 || params.len() != 8 {
            return Err(err("bt_remove takes one leaf and a key"));
        }
        let key = u64::from_le_bytes(params.try_into().unwrap());
        let Page::Leaf(mut entries) = Page::decode(inputs[0].as_bytes())? else {
            return Err(err("bt_remove applied to internal page"));
        };
        if let Ok(i) = entries.binary_search_by_key(&key, |e| e.0) {
            entries.remove(i);
        }
        Ok(vec![Page::Leaf(entries).encode()])
    }
}

/// The logical inverse of the split: the left page absorbs the right one.
/// Reads both pages, writes only the left — no page image is logged, which
/// is exactly the Figure 1 operation-B shape again.
struct MergeT;
impl TransformFn for MergeT {
    fn name(&self) -> &'static str {
        "bt_merge"
    }
    fn apply(&self, _params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        let err = |reason: &str| LlogError::Codec {
            reason: reason.to_string(),
        };
        if inputs.len() != 2 || n_outputs != 1 {
            return Err(err("bt_merge takes two leaves, produces one"));
        }
        let (Page::Leaf(mut left), Page::Leaf(mut right)) = (
            Page::decode(inputs[0].as_bytes())?,
            Page::decode(inputs[1].as_bytes())?,
        ) else {
            return Err(LlogError::NotApplicable {
                op: llog_types::OpId(0),
                reason: "bt_merge on internal pages".into(),
            });
        };
        left.append(&mut right);
        if !left.windows(2).all(|w| w[0].0 < w[1].0) {
            return Err(LlogError::NotApplicable {
                op: llog_types::OpId(0),
                reason: "bt_merge inputs are not ordered siblings".into(),
            });
        }
        Ok(vec![Page::Leaf(left).encode()])
    }
}

struct RemoveChildT;
impl TransformFn for RemoveChildT {
    fn name(&self) -> &'static str {
        "bt_remove_child"
    }
    fn apply(&self, params: &[u8], inputs: &[Value], n_outputs: usize) -> Result<Vec<Value>> {
        let err = |reason: &str| LlogError::Codec {
            reason: reason.to_string(),
        };
        if inputs.len() != 1 || n_outputs != 1 || params.len() != 8 {
            return Err(err(
                "bt_remove_child takes one internal page and a separator",
            ));
        }
        let sep = u64::from_le_bytes(params.try_into().unwrap());
        let Page::Internal { child0, mut seps } = Page::decode(inputs[0].as_bytes())? else {
            return Err(err("bt_remove_child applied to leaf"));
        };
        match seps.binary_search_by_key(&sep, |e| e.0) {
            Ok(i) => {
                seps.remove(i);
            }
            Err(_) => {
                return Err(LlogError::NotApplicable {
                    op: llog_types::OpId(0),
                    reason: "separator not present".into(),
                })
            }
        }
        Ok(vec![Page::Internal { child0, seps }.encode()])
    }
}

/// Register the B-tree transforms (call before executing or replaying).
pub fn register_transforms(registry: &mut TransformRegistry) {
    registry.register(BT_INSERT, Arc::new(InsertT));
    registry.register(BT_SPLIT, Arc::new(SplitT));
    registry.register(BT_INSERT_CHILD, Arc::new(InsertChildT));
    registry.register(BT_REMOVE, Arc::new(RemoveT));
    registry.register(BT_MERGE, Arc::new(MergeT));
    registry.register(BT_REMOVE_CHILD, Arc::new(RemoveChildT));
}

// ---------------------------------------------------------------------
// The tree
// ---------------------------------------------------------------------

/// A recoverable B+-tree. All durable state lives in engine objects; the
/// struct itself holds only configuration and can be re-opened after a
/// crash from the metadata object.
#[derive(Debug, Clone)]
pub struct BTree {
    meta: ObjectId,
    /// Maximum entries per page before it must split.
    order: usize,
    /// How splits are logged: logical (ids only) or physiological (the new
    /// page's contents logged) — the E2 comparison.
    logical_splits: bool,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Meta {
    root: u64,
    next_page: u64,
}

impl Meta {
    fn encode(&self) -> Value {
        let mut out = Vec::with_capacity(16);
        out.extend_from_slice(&self.root.to_le_bytes());
        out.extend_from_slice(&self.next_page.to_le_bytes());
        Value::from(out)
    }
    fn decode(bytes: &[u8]) -> Result<Meta> {
        if bytes.len() != 16 {
            return Err(LlogError::Codec {
                reason: "btree meta must be 16 bytes".into(),
            });
        }
        Ok(Meta {
            root: u64::from_le_bytes(bytes[0..8].try_into().unwrap()),
            next_page: u64::from_le_bytes(bytes[8..16].try_into().unwrap()),
        })
    }
}

impl BTree {
    /// Create a fresh tree whose metadata lives in `meta`.
    ///
    /// `order` must be at least 3: splitting an internal page hands half
    /// its separators to the new sibling and promotes one, which needs
    /// three to be well-defined — an order-2 tree would wedge on its
    /// first internal split (found by `llog-fuzz`).
    pub fn create(
        engine: &mut Engine,
        meta: ObjectId,
        order: usize,
        logical_splits: bool,
    ) -> Result<BTree> {
        assert!(order >= 3, "order must be at least 3");
        let t = BTree {
            meta,
            order,
            logical_splits,
        };
        // Root = page 0, an empty leaf; next allocation = 1.
        t.write_meta(
            engine,
            Meta {
                root: 0,
                next_page: 1,
            },
        )?;
        engine.execute(
            OpKind::Physical,
            vec![],
            vec![page_object(0)],
            Transform::new(
                builtin::CONST,
                builtin::encode_values(&[Page::Leaf(Vec::new()).encode()]),
            ),
        )?;
        Ok(t)
    }

    /// Re-open an existing tree (e.g. after recovery).
    pub fn open(
        engine: &mut Engine,
        meta: ObjectId,
        order: usize,
        logical_splits: bool,
    ) -> Result<BTree> {
        let t = BTree {
            meta,
            order,
            logical_splits,
        };
        t.read_meta(engine)?; // validate
        Ok(t)
    }

    fn read_meta(&self, engine: &mut Engine) -> Result<Meta> {
        Meta::decode(engine.read_value(self.meta).as_bytes())
    }

    fn write_meta(&self, engine: &mut Engine, m: Meta) -> Result<()> {
        engine.execute(
            OpKind::Physical,
            vec![],
            vec![self.meta],
            Transform::new(builtin::CONST, builtin::encode_values(&[m.encode()])),
        )?;
        Ok(())
    }

    fn read_page(&self, engine: &mut Engine, page_no: u64) -> Result<Page> {
        Page::decode(engine.read_value(page_object(page_no)).as_bytes())
    }

    /// Split page `page_no` into itself plus a fresh page; returns
    /// `(separator, new_page_no)`.
    fn split_page(&self, engine: &mut Engine, meta: &mut Meta, page_no: u64) -> Result<(u64, u64)> {
        let page = self.read_page(engine, page_no)?;
        let sep = match &page {
            Page::Leaf(entries) => entries[entries.len() / 2].0,
            Page::Internal { seps, .. } => seps[seps.len() / 2].0,
        };
        let new_no = meta.next_page;
        meta.next_page += 1;
        if self.logical_splits {
            // The paper's logical split: only the two page ids are logged.
            engine.execute(
                OpKind::Logical,
                vec![page_object(page_no)],
                vec![page_object(page_no), page_object(new_no)],
                Transform::new(BT_SPLIT, Value::empty()),
            )?;
        } else {
            // Physiological baseline: two single-page ops; the new page's
            // whole contents go to the log as a physical write.
            let reg = engine.registry().clone();
            let halves = reg.apply(
                llog_types::OpId(0),
                &Transform::new(BT_SPLIT, Value::empty()),
                &[engine.read_value(page_object(page_no))],
                2,
            )?;
            engine.execute(
                OpKind::Physical,
                vec![],
                vec![page_object(new_no)],
                Transform::new(builtin::CONST, builtin::encode_values(&[halves[1].clone()])),
            )?;
            engine.execute(
                OpKind::Physical,
                vec![],
                vec![page_object(page_no)],
                Transform::new(builtin::CONST, builtin::encode_values(&[halves[0].clone()])),
            )?;
        }
        Ok((sep, new_no))
    }

    /// Insert (or replace) `key → value`.
    pub fn insert(&self, engine: &mut Engine, key: u64, value: &[u8]) -> Result<()> {
        let mut meta = self.read_meta(engine)?;

        // Preemptive root split keeps the descent single-pass.
        if self.read_page(engine, meta.root)?.len() >= self.order {
            let root = meta.root;
            let (sep, right) = self.split_page(engine, &mut meta, root)?;
            let new_root = meta.next_page;
            meta.next_page += 1;
            engine.execute(
                OpKind::Physical,
                vec![],
                vec![page_object(new_root)],
                Transform::new(
                    builtin::CONST,
                    builtin::encode_values(&[Page::Internal {
                        child0: meta.root,
                        seps: vec![(sep, right)],
                    }
                    .encode()]),
                ),
            )?;
            meta.root = new_root;
            self.write_meta(engine, meta)?;
        }

        let mut page_no = meta.root;
        loop {
            match self.read_page(engine, page_no)? {
                Page::Leaf(_) => {
                    let mut params = Vec::with_capacity(10 + value.len());
                    params.extend_from_slice(&key.to_le_bytes());
                    params.extend_from_slice(&(value.len() as u16).to_le_bytes());
                    params.extend_from_slice(value);
                    engine.execute(
                        OpKind::Physiological,
                        vec![page_object(page_no)],
                        vec![page_object(page_no)],
                        Transform::new(BT_INSERT, Value::from(params)),
                    )?;
                    return Ok(());
                }
                Page::Internal { child0, seps } => {
                    let pick = |seps: &[(u64, u64)]| {
                        let mut child = child0;
                        for &(s, c) in seps {
                            if key >= s {
                                child = c;
                            } else {
                                break;
                            }
                        }
                        child
                    };
                    let mut child = pick(&seps);
                    if self.read_page(engine, child)?.len() >= self.order {
                        let (sep, right) = self.split_page(engine, &mut meta, child)?;
                        self.write_meta(engine, meta)?;
                        let mut params = Vec::with_capacity(16);
                        params.extend_from_slice(&sep.to_le_bytes());
                        params.extend_from_slice(&right.to_le_bytes());
                        engine.execute(
                            OpKind::Physiological,
                            vec![page_object(page_no)],
                            vec![page_object(page_no)],
                            Transform::new(BT_INSERT_CHILD, Value::from(params)),
                        )?;
                        // Re-route after the split.
                        let Page::Internal { child0: c0, seps } =
                            self.read_page(engine, page_no)?
                        else {
                            unreachable!("internal page stays internal");
                        };
                        let _ = c0;
                        child = {
                            let mut ch = c0;
                            for &(s, c) in &seps {
                                if key >= s {
                                    ch = c;
                                } else {
                                    break;
                                }
                            }
                            ch
                        };
                    }
                    page_no = child;
                }
            }
        }
    }

    /// Remove `key` if present (lazy deletion: leaves may underflow; use
    /// [`compact`](Self::compact) to merge thin siblings back together).
    pub fn remove(&self, engine: &mut Engine, key: u64) -> Result<bool> {
        let meta = self.read_meta(engine)?;
        let mut page_no = meta.root;
        loop {
            match self.read_page(engine, page_no)? {
                Page::Leaf(entries) => {
                    if entries.binary_search_by_key(&key, |e| e.0).is_err() {
                        return Ok(false);
                    }
                    engine.execute(
                        OpKind::Physiological,
                        vec![page_object(page_no)],
                        vec![page_object(page_no)],
                        Transform::new(BT_REMOVE, Value::from_slice(&key.to_le_bytes())),
                    )?;
                    return Ok(true);
                }
                Page::Internal { child0, seps } => {
                    let mut child = child0;
                    for &(s, c) in &seps {
                        if key >= s {
                            child = c;
                        } else {
                            break;
                        }
                    }
                    page_no = child;
                }
            }
        }
    }

    /// Merge adjacent thin leaves back together (one bottom-up sweep).
    /// Each merge is a *logical* multi-page operation — `L ← merge(L, R)`
    /// reads both pages and logs only ids — followed by a separator removal
    /// and the deletion of the absorbed page (a transient object whose log
    /// records need no redo after the delete, §5). Returns the number of
    /// merges performed.
    pub fn compact(&self, engine: &mut Engine) -> Result<usize> {
        let meta = self.read_meta(engine)?;
        let mut merges = 0;
        self.compact_node(engine, meta.root, &mut merges)?;
        Ok(merges)
    }

    fn compact_node(&self, engine: &mut Engine, page_no: u64, merges: &mut usize) -> Result<()> {
        let Page::Internal { child0, seps } = self.read_page(engine, page_no)? else {
            return Ok(());
        };
        // Recurse first so grandchildren merge before we examine children.
        self.compact_node(engine, child0, merges)?;
        for &(_, c) in &seps {
            self.compact_node(engine, c, merges)?;
        }
        // Merge adjacent *leaf* children whose combined size fits.
        let mut children: Vec<(Option<u64>, u64)> = Vec::with_capacity(seps.len() + 1);
        children.push((None, child0));
        for &(s, c) in &seps {
            children.push((Some(s), c));
        }
        let mut i = 0;
        while i + 1 < children.len() {
            let (_, left) = children[i];
            let (sep, right) = children[i + 1];
            let (Page::Leaf(le), Page::Leaf(re)) = (
                self.read_page(engine, left)?,
                self.read_page(engine, right)?,
            ) else {
                i += 1;
                continue;
            };
            if le.len() + re.len() > self.order {
                i += 1;
                continue;
            }
            let sep = sep.expect("non-first child has a separator");
            // L ← merge(L, R): logical, no page images logged.
            engine.execute(
                OpKind::Logical,
                vec![page_object(left), page_object(right)],
                vec![page_object(left)],
                Transform::new(BT_MERGE, Value::empty()),
            )?;
            // Drop R's routing entry, then R itself.
            engine.execute(
                OpKind::Physiological,
                vec![page_object(page_no)],
                vec![page_object(page_no)],
                Transform::new(BT_REMOVE_CHILD, Value::from_slice(&sep.to_le_bytes())),
            )?;
            engine.execute(
                OpKind::Delete,
                vec![],
                vec![page_object(right)],
                Transform::new(builtin::DELETE, Value::empty()),
            )?;
            *merges += 1;
            children.remove(i + 1);
            // Re-examine the grown left child against the next sibling.
        }
        Ok(())
    }

    /// Look up `key`.
    pub fn get(&self, engine: &mut Engine, key: u64) -> Result<Option<Vec<u8>>> {
        let meta = self.read_meta(engine)?;
        let mut page_no = meta.root;
        loop {
            match self.read_page(engine, page_no)? {
                Page::Leaf(entries) => {
                    return Ok(entries
                        .binary_search_by_key(&key, |e| e.0)
                        .ok()
                        .map(|i| entries[i].1.clone()));
                }
                Page::Internal { child0, seps } => {
                    let mut child = child0;
                    for &(s, c) in &seps {
                        if key >= s {
                            child = c;
                        } else {
                            break;
                        }
                    }
                    page_no = child;
                }
            }
        }
    }

    /// All entries in key order (walks every leaf).
    pub fn scan_all(&self, engine: &mut Engine) -> Result<Vec<(u64, Vec<u8>)>> {
        let meta = self.read_meta(engine)?;
        let mut out = Vec::new();
        self.collect(engine, meta.root, &mut out)?;
        Ok(out)
    }

    fn collect(
        &self,
        engine: &mut Engine,
        page_no: u64,
        out: &mut Vec<(u64, Vec<u8>)>,
    ) -> Result<()> {
        match self.read_page(engine, page_no)? {
            Page::Leaf(mut entries) => out.append(&mut entries),
            Page::Internal { child0, seps } => {
                self.collect(engine, child0, out)?;
                for (_, c) in seps {
                    self.collect(engine, c, out)?;
                }
            }
        }
        Ok(())
    }

    /// Structural invariants: sorted keys, uniform leaf depth, separator
    /// consistency. Test aid; panics on violation.
    pub fn check_invariants(&self, engine: &mut Engine) -> Result<()> {
        let meta = self.read_meta(engine)?;
        let mut leaf_depths = Vec::new();
        self.check_node(engine, meta.root, None, None, 0, &mut leaf_depths)?;
        assert!(
            leaf_depths.windows(2).all(|w| w[0] == w[1]),
            "leaves at differing depths: {leaf_depths:?}"
        );
        let all = self.scan_all(engine)?;
        assert!(
            all.windows(2).all(|w| w[0].0 < w[1].0),
            "keys out of order or duplicated"
        );
        Ok(())
    }

    fn check_node(
        &self,
        engine: &mut Engine,
        page_no: u64,
        lo: Option<u64>,
        hi: Option<u64>,
        depth: usize,
        leaf_depths: &mut Vec<usize>,
    ) -> Result<()> {
        match self.read_page(engine, page_no)? {
            Page::Leaf(entries) => {
                for (k, _) in &entries {
                    assert!(lo.is_none_or(|l| *k >= l), "key {k} below bound {lo:?}");
                    assert!(hi.is_none_or(|h| *k < h), "key {k} above bound {hi:?}");
                }
                leaf_depths.push(depth);
            }
            Page::Internal { child0, seps } => {
                assert!(
                    seps.windows(2).all(|w| w[0].0 < w[1].0),
                    "separators out of order"
                );
                let mut lo_bound = lo;
                let mut children = vec![(child0, lo_bound, seps.first().map(|s| s.0))];
                for (i, &(s, c)) in seps.iter().enumerate() {
                    lo_bound = Some(s);
                    let next_hi = seps.get(i + 1).map(|s| s.0).or(hi);
                    children.push((c, lo_bound, next_hi));
                }
                // The first child's high bound was set above; fix hi for it.
                for (c, l, h) in children {
                    self.check_node(engine, c, l, h, depth + 1, leaf_depths)?;
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llog_core::{EngineConfig, FlushStrategy, GraphKind, RedoPolicy};

    const META: ObjectId = ObjectId(0x7000_0000_0000_0000);

    fn registry() -> TransformRegistry {
        let mut r = TransformRegistry::with_builtins();
        register_transforms(&mut r);
        r
    }

    fn engine() -> Engine {
        Engine::new(
            EngineConfig {
                graph: GraphKind::RW,
                flush: FlushStrategy::IdentityWrites,
                audit: false,
            },
            registry(),
        )
    }

    #[test]
    fn page_codec_roundtrips() {
        let pages = vec![
            Page::Leaf(vec![]),
            Page::Leaf(vec![(1, b"a".to_vec()), (9, b"bb".to_vec())]),
            Page::Internal {
                child0: 7,
                seps: vec![(10, 8), (20, 9)],
            },
        ];
        for p in pages {
            assert_eq!(Page::decode(p.encode().as_bytes()).unwrap(), p);
        }
        // Empty bytes = empty leaf.
        assert_eq!(Page::decode(&[]).unwrap(), Page::Leaf(vec![]));
    }

    #[test]
    fn insert_and_get_without_splits() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 8, true).unwrap();
        for k in [5u64, 1, 9, 3] {
            t.insert(&mut e, k, format!("v{k}").as_bytes()).unwrap();
        }
        assert_eq!(t.get(&mut e, 3).unwrap(), Some(b"v3".to_vec()));
        assert_eq!(t.get(&mut e, 4).unwrap(), None);
        t.check_invariants(&mut e).unwrap();
    }

    #[test]
    fn replace_updates_value() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 8, true).unwrap();
        t.insert(&mut e, 1, b"old").unwrap();
        t.insert(&mut e, 1, b"new").unwrap();
        assert_eq!(t.get(&mut e, 1).unwrap(), Some(b"new".to_vec()));
        assert_eq!(t.scan_all(&mut e).unwrap().len(), 1);
    }

    #[test]
    fn splits_keep_tree_sorted_and_balanced() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 4, true).unwrap();
        // Insert enough to force multi-level splits (order 4).
        for k in 0..200u64 {
            let k = (k * 37) % 200; // scrambled order
            t.insert(&mut e, k, &k.to_le_bytes()).unwrap();
        }
        t.check_invariants(&mut e).unwrap();
        let all = t.scan_all(&mut e).unwrap();
        assert_eq!(all.len(), 200);
        for (i, (k, v)) in all.iter().enumerate() {
            assert_eq!(*k, i as u64);
            assert_eq!(v, &k.to_le_bytes());
        }
    }

    #[test]
    fn logical_and_physiological_trees_agree() {
        let run = |logical: bool| {
            let mut e = engine();
            let t = BTree::create(&mut e, META, 4, logical).unwrap();
            for k in 0..100u64 {
                t.insert(&mut e, (k * 13) % 100, b"v").unwrap();
            }
            t.check_invariants(&mut e).unwrap();
            (
                t.scan_all(&mut e).unwrap(),
                e.metrics().snapshot().log_bytes,
            )
        };
        let (logical_scan, logical_bytes) = run(true);
        let (physio_scan, physio_bytes) = run(false);
        assert_eq!(logical_scan, physio_scan);
        assert!(
            physio_bytes > logical_bytes,
            "physiological splits must log more: {physio_bytes} vs {logical_bytes}"
        );
    }

    #[test]
    fn tree_survives_crash_and_recovery() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 4, true).unwrap();
        for k in 0..60u64 {
            t.insert(&mut e, k, &k.to_le_bytes()).unwrap();
        }
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut rec, _) = llog_core::recover(
            store,
            wal,
            registry(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        let t = BTree::open(&mut rec, META, 4, true).unwrap();
        t.check_invariants(&mut rec).unwrap();
        for k in 0..60u64 {
            assert_eq!(t.get(&mut rec, k).unwrap(), Some(k.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn tree_survives_crash_after_partial_installs() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 4, true).unwrap();
        for k in 0..60u64 {
            t.insert(&mut e, k, &k.to_le_bytes()).unwrap();
            if k % 7 == 0 {
                e.install_one().unwrap();
            }
            if k % 13 == 0 {
                e.checkpoint(false).unwrap();
            }
        }
        e.wal_mut().force();
        let (store, wal) = e.crash();
        let (mut rec, out) = llog_core::recover(
            store,
            wal,
            registry(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        assert!(out.skipped > 0, "installed work must be bypassed");
        let t = BTree::open(&mut rec, META, 4, true).unwrap();
        t.check_invariants(&mut rec).unwrap();
        for k in 0..60u64 {
            assert_eq!(t.get(&mut rec, k).unwrap(), Some(k.to_le_bytes().to_vec()));
        }
    }

    #[test]
    fn remove_deletes_keys() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 8, true).unwrap();
        for k in 0..20u64 {
            t.insert(&mut e, k, b"v").unwrap();
        }
        assert!(t.remove(&mut e, 7).unwrap());
        assert!(!t.remove(&mut e, 7).unwrap(), "second remove is a no-op");
        assert!(!t.remove(&mut e, 999).unwrap());
        assert_eq!(t.get(&mut e, 7).unwrap(), None);
        assert_eq!(t.scan_all(&mut e).unwrap().len(), 19);
        t.check_invariants(&mut e).unwrap();
    }

    #[test]
    fn compact_merges_thin_leaves_logically() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 4, true).unwrap();
        for k in 0..40u64 {
            t.insert(&mut e, k, b"v").unwrap();
        }
        // Empty out most keys, leaving thin leaves behind.
        for k in 0..40u64 {
            if k % 4 != 0 {
                t.remove(&mut e, k).unwrap();
            }
        }
        let before = e.metrics().snapshot().log_bytes;
        let merges = t.compact(&mut e).unwrap();
        assert!(merges > 0, "thin leaves must merge");
        // Merges are logical: tiny log growth despite moving page contents.
        let delta = e.metrics().snapshot().log_bytes - before;
        assert!(delta < merges as u64 * 200, "merge logged {delta} bytes");
        t.check_invariants(&mut e).unwrap();
        let all = t.scan_all(&mut e).unwrap();
        assert_eq!(all.len(), 10);
        for (i, (k, _)) in all.iter().enumerate() {
            assert_eq!(*k, i as u64 * 4);
        }
    }

    #[test]
    fn compacted_tree_survives_crash_and_recovery() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 4, true).unwrap();
        for k in 0..60u64 {
            t.insert(&mut e, k, &k.to_le_bytes()).unwrap();
        }
        for k in 0..60u64 {
            if k % 3 != 0 {
                t.remove(&mut e, k).unwrap();
            }
        }
        t.compact(&mut e).unwrap();
        // More churn after compaction.
        for k in 100..120u64 {
            t.insert(&mut e, k, &k.to_le_bytes()).unwrap();
        }
        e.wal_mut().force();
        let want = t.scan_all(&mut e).unwrap();
        let (store, wal) = e.crash();
        let (mut rec, _) = llog_core::recover(
            store,
            wal,
            registry(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        let t = BTree::open(&mut rec, META, 4, true).unwrap();
        t.check_invariants(&mut rec).unwrap();
        assert_eq!(t.scan_all(&mut rec).unwrap(), want);
    }

    #[test]
    fn compact_install_and_recover_with_partial_installs() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 4, true).unwrap();
        for k in 0..40u64 {
            t.insert(&mut e, k, b"v").unwrap();
        }
        e.install_all().unwrap();
        for k in 0..40u64 {
            if k % 5 != 0 {
                t.remove(&mut e, k).unwrap();
            }
        }
        t.compact(&mut e).unwrap();
        e.install_one().unwrap();
        e.wal_mut().force();
        let want = t.scan_all(&mut e).unwrap();
        let (store, wal) = e.crash();
        let (mut rec, _) = llog_core::recover(
            store,
            wal,
            registry(),
            EngineConfig::default(),
            RedoPolicy::RsiExposed,
        )
        .unwrap();
        let t = BTree::open(&mut rec, META, 4, true).unwrap();
        assert_eq!(t.scan_all(&mut rec).unwrap(), want);
    }

    #[test]
    fn logical_split_logs_only_ids() {
        let mut e = engine();
        let t = BTree::create(&mut e, META, 4, true).unwrap();
        // Fill one page with fat values, then trigger a split and measure.
        for k in 0..4u64 {
            t.insert(&mut e, k, &[7u8; 1000]).unwrap();
        }
        let before = e.metrics().snapshot().log_bytes;
        t.insert(&mut e, 4, &[7u8; 1000]).unwrap(); // forces a split
        let delta = e.metrics().snapshot().log_bytes - before;
        // The split itself logged ids; the dominating cost is the (physical)
        // new-root + meta writes and the inserted value. Nothing close to
        // the ~2 KiB page images moved.
        assert!(delta < 2200, "split sequence logged {delta} bytes");
        t.check_invariants(&mut e).unwrap();
    }
}
