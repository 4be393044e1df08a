//go:build poolpoison

package fabric

const PoolPoison = true
