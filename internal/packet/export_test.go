package packet

// HasPayload reports whether packets with this opcode may carry payload.
func (op OpCode) HasPayload() bool {
	return op != RCAck && op != RCRDMAReadReq && op != CNPNotify
}
