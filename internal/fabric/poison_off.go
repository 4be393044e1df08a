//go:build !poolpoison

package fabric

// PoolPoison is true in the use-after-release build (-tags poolpoison):
// release scribbles over a block and retires it; allocation tests skip.
const PoolPoison = false
