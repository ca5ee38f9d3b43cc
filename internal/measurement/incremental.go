package measurement

// IncrementalRegions caches each cell's last-built admissible region so
// frames in which nothing affecting a cell's constraint rows changed reuse
// the cached rows instead of re-deriving them. A cached region is reused
// only when
//
//   - the cell gathers the same request users in the same order,
//   - every request's measurement version matches the version at build time
//     (the caller bumps a user's version whenever its measurements — gains,
//     and hence FCH ledgers and pilot reports — or its soft-handoff sets
//     changed; versions are monotonic, so a change is never forgotten even
//     if the user spends frames outside the request queue), and
//   - for the reverse link, every involved cell's ledger load is bitwise
//     the load at build time (reverse coefficients embed the loads; forward
//     coefficients do not).
//
// Bounds are NOT cached: they are one subtraction per involved cell and
// depend on the live ledger, so they are recomputed from the current state
// on every reuse. Reuse therefore happens only when the inputs are bitwise
// unchanged, and the incremental path is output-identical to full
// rebuilds.
//
// Each cell's cache entry is touched only by the goroutine solving that
// cell, so the snapshot frame mode's workers can share one
// IncrementalRegions without synchronisation (cells are partitioned across
// workers per frame).
type IncrementalRegions struct {
	// ForceFull disables reuse entirely — every call rebuilds. The
	// incremental-vs-full differential tests flip this.
	ForceFull bool

	cells []regionCache
}

// regionCache is one cell's cached region plus the inputs it was built from.
type regionCache struct {
	valid bool
	users []int    // request user IDs, gathered order
	vers  []uint64 // per-request measurement versions at build time
	// Deep copies of the built region (the builders' storage is reused
	// across cells, so the cache owns its own).
	cellIdx []int
	loads   []float64 // ledger values at the involved cells at build time
	rows    [][]float64
	flat    []float64
	bounds  []float64

	hits, misses uint64
}

// NewIncrementalRegions returns an incremental cache for nCells cells.
func NewIncrementalRegions(nCells int) *IncrementalRegions {
	return &IncrementalRegions{cells: make([]regionCache, nCells)}
}

// Stats sums the per-cell reuse counters: hits are frames a cached region
// was served, misses are full (re)builds.
func (ir *IncrementalRegions) Stats() (hits, misses uint64) {
	for i := range ir.cells {
		hits += ir.cells[i].hits
		misses += ir.cells[i].misses
	}
	return hits, misses
}

// reusable reports whether cell k's cache can serve the request set: same
// users in order, each at the same measurement version as at build time.
func (c *regionCache) reusable(userOf func(i int) (id int, ver uint64), n int) bool {
	if !c.valid || n != len(c.users) {
		return false
	}
	for i := 0; i < n; i++ {
		id, ver := userOf(i)
		if c.users[i] != id || c.vers[i] != ver {
			return false
		}
	}
	return true
}

// loadsMatch checks the involved cells' ledger values against the build-time
// snapshot.
func (c *regionCache) loadsMatch(current []float64) bool {
	for i, k := range c.cellIdx {
		if current[k] != c.loads[i] {
			return false
		}
	}
	return true
}

// store deep-copies the freshly built region and its inputs into the cache,
// reusing the cache's buffers so steady-state rebuilds stay allocation-free
// once the buffers have grown to their working size.
func (c *regionCache) store(userOf func(i int) (id int, ver uint64), n int, region Region, ledger []float64) {
	c.users = c.users[:0]
	c.vers = c.vers[:0]
	for i := 0; i < n; i++ {
		id, ver := userOf(i)
		c.users = append(c.users, id)
		c.vers = append(c.vers, ver)
	}
	c.cellIdx = append(c.cellIdx[:0], region.Cells...)
	c.bounds = append(c.bounds[:0], region.Bound...)
	c.loads = c.loads[:0]
	for _, k := range region.Cells {
		c.loads = append(c.loads, ledger[k])
	}
	need := len(region.Cells) * n
	if cap(c.flat) < need {
		c.flat = make([]float64, 0, need)
	}
	c.flat = c.flat[:0]
	c.rows = c.rows[:0]
	for _, row := range region.Coeff {
		c.flat = append(c.flat, row...)
	}
	for i := range region.Coeff {
		c.rows = append(c.rows, c.flat[i*n:(i+1)*n])
	}
	c.valid = true
}

// cached packages the cache entry as a Region with bounds refreshed from the
// live state: bound[i] = maxLoad - ledger[cellIdx[i]], the same formula the
// builders use.
func (c *regionCache) cached(maxLoad float64, ledger []float64) Region {
	for i, k := range c.cellIdx {
		c.bounds[i] = maxLoad - ledger[k]
	}
	return Region{Coeff: c.rows, Bound: c.bounds, Cells: c.cellIdx}
}

// ForwardCell returns cell k's forward-link admissible region, serving the
// cached rows when reusable (reported by the second return) and rebuilding
// through rb otherwise. vers[i] is requests[i]'s user's current measurement
// version. The returned region aliases either the cache or the builder and
// is valid until the next build touching the same storage.
func (ir *IncrementalRegions) ForwardCell(k int, rb *RegionBuilder, state ForwardState, requests []ForwardRequest, vers []uint64) (Region, bool, error) {
	c := &ir.cells[k]
	userOf := func(i int) (int, uint64) { return requests[i].UserID, vers[i] }
	if !ir.ForceFull && c.reusable(userOf, len(requests)) {
		c.hits++
		return c.cached(state.MaxLoad, state.CurrentLoad), true, nil
	}
	region, err := rb.Forward(state, requests)
	if err != nil {
		c.valid = false
		return Region{}, false, err
	}
	c.misses++
	c.store(userOf, len(requests), region, state.CurrentLoad)
	return region, false, nil
}

// ReverseCell is ForwardCell for the reverse link. Reuse additionally
// requires the involved cells' ledger loads to equal the build-time values,
// because the reverse coefficients embed the loads.
func (ir *IncrementalRegions) ReverseCell(k int, rb *RegionBuilder, state ReverseState, requests []ReverseRequest, vers []uint64) (Region, bool, error) {
	c := &ir.cells[k]
	userOf := func(i int) (int, uint64) { return requests[i].UserID, vers[i] }
	if !ir.ForceFull && c.reusable(userOf, len(requests)) &&
		c.loadsMatch(state.TotalReceived) {
		c.hits++
		return c.cached(state.MaxReceived, state.TotalReceived), true, nil
	}
	region, err := rb.Reverse(state, requests)
	if err != nil {
		c.valid = false
		return Region{}, false, err
	}
	c.misses++
	c.store(userOf, len(requests), region, state.TotalReceived)
	return region, false, nil
}
