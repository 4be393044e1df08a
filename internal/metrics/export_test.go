package metrics

// N returns the total number of samples, including out-of-range ones.
func (h *Histogram) N() uint64 { return h.n }

// Bucket returns the count in bucket i.
func (h *Histogram) Bucket(i int) uint64 { return h.buckets[i] }

// OutOfRange returns the underflow and overflow counts.
func (h *Histogram) OutOfRange() (under, over uint64) { return h.underflow, h.overflow }
