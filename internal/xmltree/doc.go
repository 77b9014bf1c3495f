// Package xmltree assembles the succinct XML document model of the paper:
// the balanced-parentheses structure Par, the tag sequence Tag, the leaf
// bitmap B connecting tree nodes and text identifiers (Section 4), the text
// collection (Section 3), and the relative tag position tables of Section
// 5.5.6. The model adds an extra root labeled "&" and encodes attributes via
// "@"/"%" nodes and text via "#" leaves exactly as Section 2 describes.
package xmltree

import (
	"bytes"
	"context"

	"repro/internal/bitvec"
	"repro/internal/bp"
	"repro/internal/fmindex"
	"repro/internal/tags"
	"repro/internal/xmlparse"
)

// Reserved label names of the model (Section 2).
const (
	RootLabel    = "&" // synthetic super-root
	TextLabel    = "#" // text leaf
	AttrsLabel   = "@" // attribute container (first child)
	AttrValLabel = "%" // attribute value leaf
)

// Tag ids of the reserved labels. ParseRaw interns the reserved labels
// first, in this order, and ReadIndexMapped rejects a label table that
// disagrees, so the ids are constants and the hot paths never look them up.
const (
	rootTag int32 = iota
	textTag
	attrsTag
	attrValTag
)

// reservedLabels lists the reserved labels by tag id.
var reservedLabels = [...]string{rootTag: RootLabel, textTag: TextLabel, attrsTag: AttrsLabel, attrValTag: AttrValLabel}

// Nil is the missing-node sentinel, shared with package bp.
const Nil = bp.Nil

// Doc is the indexed document. Nodes are identified by the position of
// their opening parenthesis in Par.
type Doc struct {
	Par *bp.Parens
	Tag *tags.Sequence

	names  []string
	nameID map[string]int32

	leafB *bitvec.Vector // marks opening parens of #/% text leaves

	// Text storage. FM is the self-index (may be nil if disabled); Plain is
	// the redundant plain-text store of Section 3.4 (may be nil).
	FM    *fmindex.Index
	Plain *TextStore
	nText int

	// per-tag statistics
	tagCount []int32 // occurrences of each tag (as node label)

	// pureText[tag] reports that every element with this tag has pure
	// PCDATA content: either no children or exactly one # text child.
	// Used by the planner rule of Section 6.6 (step 2).
	pureText []bool

	// Relative tag position tables (Section 5.5.6): bitsets over tag ids.
	childTags, descTags, follSibTags, follTags []tagSet

	// min close / max open positions per tag, used to build follTags and
	// useful for planning.
	minClose, maxOpen []int32

	// aliasedBytes is the size of the buffer a ReadIndexMapped load aliases
	// its payloads out of; zero for parsed documents.
	aliasedBytes int
}

// TextStore is the redundant plain-text collection of Section 3.4. It has
// two representations behind one accessor: the builder keeps the parsed
// texts as individual slices, while a loaded store is a single blob plus
// cumulative end offsets, sliced on demand — on a mapped index both alias
// the file, so restoring millions of texts costs nothing at open time and
// no per-text headers are ever materialized.
type TextStore struct {
	parts [][]byte // building path: one slice per text
	blob  []byte   // loaded path: concatenated texts…
	offs  []uint64 // …and their cumulative end offsets (len = text count)
}

// NewTextStoreParts wraps per-text slices (the parse/build path).
func NewTextStoreParts(parts [][]byte) *TextStore { return &TextStore{parts: parts} }

// NewTextStoreBlob wraps a concatenated blob with cumulative end offsets,
// which must be monotone and end at len(blob) — the loaders validate this
// before construction, and Get relies on it.
func NewTextStoreBlob(blob []byte, offs []uint64) *TextStore {
	return &TextStore{blob: blob, offs: offs}
}

// Len returns the number of texts.
func (ts *TextStore) Len() int {
	if ts.parts != nil {
		return len(ts.parts)
	}
	return len(ts.offs)
}

// Get returns text id without copying.
func (ts *TextStore) Get(id int) []byte {
	if ts.parts != nil {
		return ts.parts[id]
	}
	lo := uint64(0)
	if id > 0 {
		lo = ts.offs[id-1]
	}
	hi := ts.offs[id]
	return ts.blob[lo:hi:hi]
}

// All materializes the collection as one slice per text (sharing the
// underlying bytes). Intended for bulk consumers like the word index;
// query paths should use Get.
func (ts *TextStore) All() [][]byte {
	if ts.parts != nil {
		return ts.parts
	}
	out := make([][]byte, len(ts.offs))
	for i := range out {
		out[i] = ts.Get(i)
	}
	return out
}

// SizeInBytes reports the memory footprint (content plus headers).
func (ts *TextStore) SizeInBytes() int {
	if ts.parts != nil {
		n := 0
		for _, t := range ts.parts {
			n += len(t) + 24
		}
		return n
	}
	return len(ts.blob) + 8*len(ts.offs)
}

type tagSet []uint64

func newTagSet(n int) tagSet { return make(tagSet, (n+63)/64) }
func (s tagSet) set(i int32) { s[i>>6] |= 1 << uint(i&63) }
func (s tagSet) get(i int32) bool {
	if int(i>>6) >= len(s) {
		return false
	}
	return s[i>>6]&(1<<uint(i&63)) != 0
}
func (s tagSet) or(o tagSet) {
	for i := range o {
		s[i] |= o[i]
	}
}

// Options configure document indexing.
type Options struct {
	// SkipFM leaves out the FM-index over the text collection: it is not
	// built, and a stored one is skipped on load without being decoded.
	SkipFM bool
	// SampleRate is the FM locate sampling step l (default 64).
	SampleRate int
	// SkipPlain disables the redundant plain-text store of Section 3.4; text
	// extraction then walks the BWT.
	SkipPlain bool
}

// Raw is the stage-1 parse product of the staged build pipeline (package
// build): the event stream of one document flattened into plain arrays,
// before any succinct structure exists. It decouples parsing from assembly
// so the structural side (BP, tags, leaf bitmap, planner tables) and the
// text side (FM-index) can be built concurrently from one parse.
type Raw struct {
	Names  []string         // label table; reserved labels occupy ids 0..3
	NameID map[string]int32 // inverse of Names
	Parens []bool           // the parentheses sequence (true = open)
	TagIDs []int32          // 2*tag for an opening paren, 2*tag+1 for a closing
	Leaves []int            // paren positions of text leaves, ascending
	Texts  [][]byte         // the text collection, in leaf order
}

// builder accumulates the model during the parse.
type builder struct {
	raw  *Raw
	opts Options
}

// Parse indexes an XML document held in memory. It is the convenience
// path: ParseRaw, AssembleStructure and the FM-index build run one after
// another. Package build overlaps the structure and text sides, bounds
// their memory and takes a context; both produce identical documents.
func Parse(data []byte, opts Options) (*Doc, error) {
	raw, err := ParseRaw(context.Background(), data)
	if err != nil {
		return nil, err
	}
	d, err := AssembleStructure(context.Background(), raw, opts)
	if err != nil {
		return nil, err
	}
	if !opts.SkipFM {
		fm, err := fmindex.NewCtx(context.Background(), raw.Texts, fmindex.Options{SampleRate: opts.SampleRate})
		if err != nil {
			return nil, err
		}
		d.SetFM(fm)
	}
	return d, nil
}

// ParseRaw runs the SAX parse and returns the flattened document arrays.
// Cancellation is polled inside the parser's event loop at bounded
// intervals; a failed or cancelled parse leaves no partially built state
// behind (the raw product is local until returned).
func ParseRaw(ctx context.Context, data []byte) (*Raw, error) {
	raw := &Raw{NameID: map[string]int32{}}
	b := &builder{raw: raw}
	for _, s := range reservedLabels {
		b.intern(s)
	}
	b.open(rootTag)
	if err := xmlparse.ParseCtx(ctx, data, b); err != nil {
		return nil, err
	}
	b.close(rootTag)
	return raw, nil
}

func (b *builder) intern(name string) int32 {
	if id, ok := b.raw.NameID[name]; ok {
		return id
	}
	id := int32(len(b.raw.Names))
	b.raw.Names = append(b.raw.Names, name)
	b.raw.NameID[name] = id
	return id
}

func (b *builder) open(tag int32) {
	b.raw.Parens = append(b.raw.Parens, true)
	b.raw.TagIDs = append(b.raw.TagIDs, 2*tag)
}

func (b *builder) close(tag int32) {
	b.raw.Parens = append(b.raw.Parens, false)
	b.raw.TagIDs = append(b.raw.TagIDs, 2*tag+1)
}

// The Handler interface (xmlparse events):

func (b *builder) StartElement(name string, attrs []xmlparse.Attr) error {
	tag := b.intern(name)
	b.open(tag)
	if len(attrs) > 0 {
		b.open(attrsTag)
		for _, a := range attrs {
			atag := b.intern(a.Name)
			b.open(atag)
			b.textLeaf(attrValTag, []byte(a.Value))
			b.close(atag)
		}
		b.close(attrsTag)
	}
	return nil
}

func (b *builder) EndElement(name string) error {
	b.close(b.raw.NameID[name])
	return nil
}

func (b *builder) Text(data []byte) error {
	// Texts must not contain the reserved terminator byte.
	if bytes.IndexByte(data, 0) >= 0 {
		data = bytes.ReplaceAll(data, []byte{0}, []byte{' '})
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	b.textLeaf(textTag, cp)
	return nil
}

// textLeaf adds a leaf node carrying one text.
func (b *builder) textLeaf(tag int32, text []byte) {
	b.raw.Leaves = append(b.raw.Leaves, len(b.raw.Parens))
	b.open(tag)
	b.close(tag)
	b.raw.Texts = append(b.raw.Texts, text)
}

// AssembleStructure builds the structural side of the document from a
// stage-1 parse product: balanced parentheses, tag sequence, leaf bitmap,
// the plain-text store (unless opts.SkipPlain) and the derived per-tag
// planner tables. The FM-index is NOT built here — attach one with SetFM,
// or leave it absent for tree-only workloads. Cancellation is polled
// between the component constructors and inside the tag-table traversal;
// on error the partially assembled document is dropped, never returned.
func AssembleStructure(ctx context.Context, raw *Raw, opts Options) (*Doc, error) {
	d := &Doc{names: raw.Names, nameID: raw.NameID}
	nTags := len(d.names)

	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	d.Par = bp.NewFromBools(raw.Parens)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	d.Tag = tags.Build(raw.TagIDs, 2*nTags)
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}

	lb := bitvec.New(len(raw.Parens))
	for _, p := range raw.Leaves {
		lb.Set(p)
	}
	lb.Build()
	d.leafB = lb
	d.nText = len(raw.Texts)

	if !opts.SkipPlain {
		d.Plain = NewTextStoreParts(raw.Texts)
	}
	if err := d.buildTagTablesCtx(ctx); err != nil {
		return nil, err
	}
	return d, nil
}

// SetFM attaches a text self-index built externally (the staged pipeline
// builds it concurrently with the structure). The index must cover exactly
// this document's text collection, in leaf order.
func (d *Doc) SetFM(fm *fmindex.Index) { d.FM = fm }

// ctxErr is the bounded-interval cancellation check shared by the assembly
// stages; a nil context never fails.
func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// tablePollStride is how many parenthesis positions the tag-table traversal
// visits between context polls.
const tablePollStride = 1 << 16

// RebuildTagTables recomputes the derived per-tag tables; exposed so the
// benchmark harness can time this construction component (Table IV).
func (d *Doc) RebuildTagTables() { d.buildTagTables() }

func (d *Doc) buildTagTables() { d.buildTagTablesCtx(context.Background()) }

// buildTagTablesCtx computes pureText, tag counts, and the four relative tag
// position tables by one traversal of the built structure, polling ctx
// every tablePollStride positions.
func (d *Doc) buildTagTablesCtx(ctx context.Context) error {
	nTags := len(d.names)
	d.tagCount = make([]int32, nTags)
	d.pureText = make([]bool, nTags)
	for i := range d.pureText {
		d.pureText[i] = true
	}
	d.childTags = make([]tagSet, nTags)
	d.descTags = make([]tagSet, nTags)
	d.follSibTags = make([]tagSet, nTags)
	d.follTags = make([]tagSet, nTags)
	d.minClose = make([]int32, nTags)
	d.maxOpen = make([]int32, nTags)
	for i := range d.minClose {
		d.minClose[i] = int32(1) << 30
		d.maxOpen[i] = -1
	}
	for i := 0; i < nTags; i++ {
		d.childTags[i] = newTagSet(nTags)
		d.descTags[i] = newTagSet(nTags)
		d.follSibTags[i] = newTagSet(nTags)
		d.follTags[i] = newTagSet(nTags)
	}
	type tframe struct {
		tag      int32
		desc     tagSet
		sibSeen  []int32
		textKids int
		elemKids int
	}
	var stack []tframe
	n := d.Par.Len()
	if ctx != nil && ctx.Done() == nil {
		ctx = nil // uncancellable: skip the polls
	}
	for p := 0; p < n; p++ {
		if ctx != nil && p%tablePollStride == tablePollStride-1 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		if d.Par.IsOpen(p) {
			tag := d.Tag.Access(p) / 2
			d.tagCount[tag]++
			if int32(p) > d.maxOpen[tag] {
				d.maxOpen[tag] = int32(p)
			}
			if len(stack) > 0 {
				top := &stack[len(stack)-1]
				d.childTags[top.tag].set(tag)
				for _, s := range top.sibSeen {
					d.follSibTags[s].set(tag)
				}
				// keep distinct sibling tags only
				dup := false
				for _, s := range top.sibSeen {
					if s == tag {
						dup = true
						break
					}
				}
				if !dup {
					top.sibSeen = append(top.sibSeen, tag)
				}
				switch tag {
				case textTag:
					top.textKids++
				case attrsTag:
					// attributes do not affect PCDATA purity
				default:
					top.elemKids++
				}
			}
			stack = append(stack, tframe{tag: tag, desc: newTagSet(nTags)})
		} else {
			f := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			tag := d.Tag.Access(p) / 2
			if int32(p) < d.minClose[tag] {
				d.minClose[tag] = int32(p)
			}
			d.descTags[tag].or(f.desc)
			if f.elemKids > 0 || f.textKids > 1 {
				d.pureText[tag] = false
			}
			if len(stack) > 0 {
				top := &stack[len(stack)-1]
				top.desc.or(f.desc)
				top.desc.set(tag)
			}
		}
	}
	// follTags: l' follows l iff some l' opens after some l closes.
	for l := 0; l < nTags; l++ {
		if d.tagCount[l] == 0 {
			continue
		}
		for l2 := 0; l2 < nTags; l2++ {
			if d.tagCount[l2] == 0 {
				continue
			}
			if d.maxOpen[l2] > d.minClose[l] {
				d.follTags[l].set(int32(l2))
			}
		}
	}
	return nil
}

// --- Names and tags ---

// NumTags returns the number of distinct labels (including reserved ones).
func (d *Doc) NumTags() int { return len(d.names) }

// TagName returns the label string of tag id.
func (d *Doc) TagName(id int32) string { return d.names[id] }

// TagID returns the id of a label, or -1 if the label does not occur.
func (d *Doc) TagID(name string) int32 {
	if id, ok := d.nameID[name]; ok {
		return id
	}
	return -1
}

// RootTag, TextTag, AttrsTag, AttrValTag return the reserved tag ids.
func (d *Doc) RootTag() int32    { return rootTag }
func (d *Doc) TextTag() int32    { return textTag }
func (d *Doc) AttrsTag() int32   { return attrsTag }
func (d *Doc) AttrValTag() int32 { return attrValTag }

// TagCount returns the number of nodes labeled tag.
func (d *Doc) TagCount(tag int32) int {
	if tag < 0 || int(tag) >= len(d.tagCount) {
		return 0
	}
	return int(d.tagCount[tag])
}

// PureText reports whether every node labeled tag has pure PCDATA content.
func (d *Doc) PureText(tag int32) bool {
	if tag < 0 || int(tag) >= len(d.pureText) {
		return false
	}
	return d.pureText[tag]
}

// HasDescendantTag reports whether any node labeled l has a descendant
// labeled l2 (relative tag position table, Section 5.5.6).
func (d *Doc) HasDescendantTag(l, l2 int32) bool { return d.descTags[l].get(l2) }

// HasChildTag reports whether any l-node has an l2 child.
func (d *Doc) HasChildTag(l, l2 int32) bool { return d.childTags[l].get(l2) }

// HasFollowingSiblingTag reports whether any l-node has a following sibling l2.
func (d *Doc) HasFollowingSiblingTag(l, l2 int32) bool { return d.follSibTags[l].get(l2) }

// HasFollowingTag reports whether any l2-node opens after some l-node closes.
func (d *Doc) HasFollowingTag(l, l2 int32) bool { return d.follTags[l].get(l2) }

// --- Tree navigation (delegated to Par, Section 4.2.1) ---

// Root returns the synthetic & root node.
func (d *Doc) Root() int { return d.Par.Root() }

// NumNodes returns the number of tree nodes (n in the paper).
func (d *Doc) NumNodes() int { return d.Par.NumNodes() }

// Close returns the closing parenthesis position of x.
func (d *Doc) Close(x int) int { return d.Par.Close(x) }

// FirstChild, NextSibling, Parent, IsLeaf, IsAncestor, SubtreeSize, Preorder
// are the basic navigation operations.
func (d *Doc) FirstChild(x int) int     { return d.Par.FirstChild(x) }
func (d *Doc) NextSibling(x int) int    { return d.Par.NextSibling(x) }
func (d *Doc) PrevSibling(x int) int    { return d.Par.PrevSibling(x) }
func (d *Doc) Parent(x int) int         { return d.Par.Parent(x) }
func (d *Doc) IsLeaf(x int) bool        { return d.Par.IsLeaf(x) }
func (d *Doc) IsAncestor(x, y int) bool { return d.Par.IsAncestor(x, y) }
func (d *Doc) SubtreeSize(x int) int    { return d.Par.SubtreeSize(x) }
func (d *Doc) Preorder(x int) int       { return d.Par.Preorder(x) }
func (d *Doc) NodeAtPreorder(k int) int { return d.Par.NodeAtPreorder(k) }

// TagOf returns the tag id of node x.
func (d *Doc) TagOf(x int) int32 { return d.Tag.Access(x) / 2 }

// --- Connecting to tags (Section 4.2.2) ---

// SubtreeTags returns the number of nodes labeled tag in the subtree of x
// (including x itself).
func (d *Doc) SubtreeTags(x int, tag int32) int {
	c := d.Par.Close(x)
	return d.Tag.Rank(2*tag, c+1) - d.Tag.Rank(2*tag, x)
}

// TaggedDesc returns the first node (preorder) labeled tag strictly within
// the subtree of x, or Nil.
func (d *Doc) TaggedDesc(x int, tag int32) int {
	p := d.Tag.NextOccurrence(2*tag, x+1)
	if p < 0 || p > d.Par.Close(x) {
		return Nil
	}
	return p
}

// TaggedFoll returns the first node labeled tag with preorder greater than
// x's that is not in x's subtree, or Nil.
func (d *Doc) TaggedFoll(x int, tag int32) int {
	p := d.Tag.NextOccurrence(2*tag, d.Par.Close(x)+1)
	if p < 0 {
		return Nil
	}
	return p
}

// TaggedPrec returns the last node labeled tag with preorder smaller than
// x's that is not an ancestor of x, or Nil.
func (d *Doc) TaggedPrec(x int, tag int32) int {
	r := d.Tag.Rank(2*tag, x)
	for r > 0 {
		p := d.Tag.Select(2*tag, r-1)
		if !d.Par.IsAncestor(p, x) {
			return p
		}
		r--
	}
	return Nil
}

// --- Connecting text and tree (Section 4.2.3) ---

// NumTexts returns d, the number of texts.
func (d *Doc) NumTexts() int { return d.nText }

// LeafNumber returns the number of text leaves with opening paren <= x.
func (d *Doc) LeafNumber(x int) int { return d.leafB.Rank1(x + 1) }

// TextIDs returns the half-open range [lo, hi) of text identifiers that
// descend from node x (including x itself if it is a text leaf).
func (d *Doc) TextIDs(x int) (int, int) {
	return d.leafB.Rank1(x), d.leafB.Rank1(d.Par.Close(x) + 1)
}

// TextIDToNode returns the tree node (leaf) holding text id.
func (d *Doc) TextIDToNode(id int) int { return d.leafB.Select1(id) }

// NodeToTextID returns the text id of a text leaf x, or -1.
func (d *Doc) NodeToTextID(x int) int {
	if !d.leafB.Get(x) {
		return -1
	}
	return d.leafB.Rank1(x)
}

// XMLIdText returns the global preorder identifier of the node holding text
// id (Section 4.2.3).
func (d *Doc) XMLIdText(id int) int { return d.Par.Preorder(d.leafB.Select1(id)) }

// --- Text access ---

// Text returns the content of text id, preferring the plain store and
// falling back to FM-index extraction (Section 3.4).
func (d *Doc) Text(id int) []byte {
	if d.Plain != nil {
		return d.Plain.Get(id)
	}
	if d.FM != nil {
		return d.FM.Extract(id)
	}
	return nil
}

// TextValue returns the XPath string-value of node x: the concatenation of
// all descendant text nodes (# leaves), excluding attribute values
// (Section 6.6's mixed-content semantics). For an attribute-value leaf (%)
// the value is its single text.
func (d *Doc) TextValue(x int) []byte {
	lo, hi := d.TextIDs(x)
	if lo >= hi {
		return nil
	}
	tt := d.TextTag()
	if d.TagOf(x) == d.AttrValTag() {
		return d.Text(lo)
	}
	var buf bytes.Buffer
	single := []byte(nil)
	count := 0
	for id := lo; id < hi; id++ {
		leaf := d.TextIDToNode(id)
		if d.TagOf(leaf) != tt {
			continue // skip attribute values
		}
		count++
		if count == 1 {
			single = d.Text(id)
		} else {
			if count == 2 {
				buf.Write(single)
			}
			buf.Write(d.Text(id))
		}
	}
	if count <= 1 {
		return single
	}
	return buf.Bytes()
}

// AliasedBytes returns the size of the buffer this document's payloads
// alias (the file image ReadIndexMapped decoded), or zero when it was
// parsed. Whether that buffer is an OS mapping or private heap is known
// only to its owner.
func (d *Doc) AliasedBytes() int { return d.aliasedBytes }

// SizeInBytes reports the in-memory footprint, split by component.
func (d *Doc) SizeInBytes() (tree, text, plain int) {
	tree = d.Par.SizeInBytes() + d.Tag.SizeInBytes() + d.leafB.SizeInBytes()
	for i := range d.childTags {
		tree += 8 * (len(d.childTags[i]) + len(d.descTags[i]) + len(d.follSibTags[i]) + len(d.follTags[i]))
	}
	if d.FM != nil {
		text = d.FM.SizeInBytes()
	}
	if d.Plain != nil {
		plain = d.Plain.SizeInBytes()
	}
	return
}
