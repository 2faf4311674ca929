// Package chunked implements Vec, the copy-on-write array behind every
// per-ID table a catalog patch rewrites: symtab's implication adjacency and
// the index's class and attribute postings.
//
// A patch writes a handful of elements of arrays that hold one element per
// predicate, class or signature, while older generations keep serving from
// the same arrays. A flat array must be copied whole for each patch; a Vec
// holds its elements in chunks of Size behind a chunk table, so an Edit
// copies the table plus the chunks it writes and shares every other chunk
// with the Vec it started from. Reads cost one more array load.
package chunked

// Size is the number of elements per chunk.
const Size = 1 << shift

const (
	shift = 7
	mask  = Size - 1
)

// Vec is an immutable array of T held in chunks. The zero Vec is empty.
// Published Vecs are never written: Edit derives a new one, so a Vec is safe
// for unbounded concurrent reads.
type Vec[T any] struct {
	chunks [][]T // every chunk holds Size elements but the last
	n      int
}

// From slices flat into chunks, with one table allocation and no element
// copy. The Vec aliases flat, which must not be written afterwards.
func From[T any](flat []T) Vec[T] {
	chunks := make([][]T, (len(flat)+mask)>>shift)
	for c := range chunks {
		lo := c << shift
		hi := min(lo+Size, len(flat))
		chunks[c] = flat[lo:hi:hi]
	}
	return Vec[T]{chunks: chunks, n: len(flat)}
}

// Len returns the number of elements.
func (v Vec[T]) Len() int { return v.n }

// At returns element i.
func (v Vec[T]) At(i int) T { return v.chunks[i>>shift][i&mask] }

// Flat returns the elements as one freshly allocated array.
func (v Vec[T]) Flat() []T {
	out := make([]T, 0, v.n)
	for _, ch := range v.chunks {
		out = append(out, ch...)
	}
	return out
}

// Edit starts an edit of v. v itself never changes.
func (v Vec[T]) Edit() Edit[T] {
	return Edit[T]{from: v.chunks, chunks: v.chunks, n: v.n}
}

// Edit derives a new Vec from an old one. It copies the chunk table on its
// first write and each chunk on its first write to that chunk; a chunk is
// the edit's own exactly when its backing differs from the old Vec's chunk
// at the same index, so ownership costs no allocation. An Edit is for one
// goroutine; the zero Edit edits an empty Vec.
type Edit[T any] struct {
	from     [][]T // the table of the Vec the edit started from
	chunks   [][]T // the edit's table; aliases from until ownTable
	n        int
	ownTable bool
}

// Len returns the number of elements.
func (e *Edit[T]) Len() int { return e.n }

// At returns element i.
func (e *Edit[T]) At(i int) T { return e.chunks[i>>shift][i&mask] }

// Set writes x at element i.
func (e *Edit[T]) Set(i int, x T) {
	c := i >> shift
	ch := e.chunks[c]
	if c < len(e.from) && &ch[0] == &e.from[c][0] {
		e.table(len(e.chunks))
		ch = append(make([]T, 0, len(ch)), ch...)
		e.chunks[c] = ch
	}
	ch[i&mask] = x
}

// Grow appends k zero elements.
func (e *Edit[T]) Grow(k int) {
	if k <= 0 {
		return
	}
	n := e.n + k
	last := len(e.chunks)
	e.table((n + mask) >> shift)
	if e.n&mask != 0 {
		// The last chunk is partial: replace it by one holding its part
		// of the new elements, since it may be shared and its capacity
		// ends at its length.
		c := last - 1
		old := e.chunks[c]
		ch := make([]T, min(Size, n-c<<shift))
		copy(ch, old)
		e.chunks[c] = ch
	}
	for c := last; c < len(e.chunks); c++ {
		e.chunks[c] = make([]T, min(Size, n-c<<shift))
	}
	e.n = n
}

// table makes the chunk table the edit's own, nc chunks long.
func (e *Edit[T]) table(nc int) {
	if e.ownTable && nc <= cap(e.chunks) {
		e.chunks = e.chunks[:nc]
		return
	}
	t := make([][]T, nc)
	copy(t, e.chunks)
	e.chunks, e.ownTable = t, true
}

// Done returns the edited Vec. The edit may go on: its next write to any
// chunk copies again, so the returned Vec never changes.
func (e *Edit[T]) Done() Vec[T] {
	v := Vec[T]{chunks: e.chunks, n: e.n}
	e.from, e.ownTable = e.chunks, false
	return v
}
