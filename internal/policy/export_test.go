package policy

// Switch returns the intent for one switch, or nil.
func (in *Intent) Switch(sw int) *SwitchIntent {
	for i := range in.Switches {
		if in.Switches[i].Switch == sw {
			return &in.Switches[i]
		}
	}
	return nil
}

// Sweep runs one audit pass immediately (Start drives it
// periodically).
func (a *Auditor) Sweep() { a.tick() }
