//go:build !amd64

package icrc

// hasCLMUL is false off amd64: there is no fold kernel to dispatch to.
const hasCLMUL = false

// update16 advances a CRC-16 register over data with the table kernel.
func update16(crc uint16, data []byte) uint16 { return update16Table(crc, data) }
