package enforce

import "ibasec/internal/fabric"

// Violations returns sw's Ingress P_Key Violation Counter.
func (f *Filter) Violations(sw *fabric.Switch) uint64 {
	st := f.lookup(sw)
	if st == nil {
		return 0
	}
	return st.violations
}
