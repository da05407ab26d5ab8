// Package aoe implements the ATA-over-Ethernet protocol with the paper's
// extensions (§4.2): jumbo-frame payloads, fragmentation of large
// transfers with the tag field encoding the fragment offset, and
// retransmission to tolerate packet loss.
//
// AoE is chosen exactly as in the paper: its header carries the ATA device
// register values, so a device mediator converts an intercepted command to
// a request with near-zero effort — the LBA/count/command fields captured
// by I/O interpretation map 1:1 onto the wire format.
package aoe

import (
	"encoding/binary"
	"fmt"

	"repro/internal/hw/disk"
)

// EtherType is the registered AoE ethertype.
const EtherType = 0x88A2

// HeaderSize is the wire size of the AoE header plus the ATA argument
// section, in bytes.
const HeaderSize = 36

// Protocol flag bits.
const (
	FlagResponse = 1 << 3
	FlagError    = 1 << 2
)

// ATA aflags bits.
const (
	AFlagWrite = 1 << 0
	AFlagLBA48 = 1 << 6
)

// ATA command opcodes used by the protocol.
const (
	CmdReadDMAExt  = 0x25
	CmdWriteDMAExt = 0x35
	CmdIdentify    = 0xEC
)

// Tag packs a request ID and a fragment index: the paper's extension uses
// the tag to determine the offset of a received fragment.
const (
	tagFragBits = 12
	tagFragMask = 1<<tagFragBits - 1
	// MaxFragments is the largest number of fragments per request.
	MaxFragments = 1 << tagFragBits
)

// MakeTag builds a tag from a request ID and fragment index.
func MakeTag(reqID uint32, frag int) uint32 {
	if frag < 0 || frag >= MaxFragments {
		panic("aoe: fragment index out of range")
	}
	return reqID<<tagFragBits | uint32(frag)
}

// SplitTag recovers the request ID and fragment index from a tag.
func SplitTag(tag uint32) (reqID uint32, frag int) {
	return tag >> tagFragBits, int(tag & tagFragMask)
}

// Header is the AoE header including the ATA argument section. The ATA
// fields mirror the task-file registers: a mediator copies intercepted
// register values straight in.
type Header struct {
	Flags   uint8
	Error   uint8
	Major   uint16 // shelf address
	Minor   uint8  // slot address
	Tag     uint32
	AFlags  uint8
	Feature uint8
	Count   uint16 // sectors in this fragment (extension: 16-bit count)
	Cmd     uint8  // ATA command / status
	LBA     uint64 // 48-bit LBA
	// FragTotal is the paper-extension fragment count for the whole
	// request, letting the receiver size its reassembly window.
	FragTotal uint16
	// Stamp is the paper-extension send timestamp (ns) of this exact
	// transmission, echoed verbatim by the target. It gives the initiator
	// an unambiguous RTT sample per response — a reply to a retransmitted
	// fragment carries the stamp of whichever copy the target actually
	// served, so samples stay truthful under retransmission (where timing
	// against the most recent send would read far below the real round
	// trip). Zero means unstamped; receivers skip the sample.
	Stamp int64
}

// Marshal encodes the header into a fresh HeaderSize-byte slice. Fields
// wider than their wire slots are truncated: Flags to the low four bits
// (the high four carry the version) and LBA to 48 bits.
func (h *Header) Marshal() []byte {
	b := make([]byte, HeaderSize)
	b[0] = 0x10 | h.Flags&0x0F // version 1
	b[1] = h.Error
	binary.BigEndian.PutUint16(b[2:], h.Major)
	b[4] = h.Minor
	b[5] = 0 // command: ATA
	binary.BigEndian.PutUint32(b[6:], h.Tag)
	b[10] = h.AFlags
	b[11] = h.Feature
	binary.BigEndian.PutUint16(b[12:], h.Count)
	b[14] = h.Cmd
	b[15] = 0
	binary.BigEndian.PutUint64(b[16:], h.LBA&0xFFFFFFFFFFFF)
	binary.BigEndian.PutUint16(b[24:], h.FragTotal)
	binary.BigEndian.PutUint64(b[26:], uint64(h.Stamp))
	return b
}

// Unmarshal decodes a header from b.
func Unmarshal(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("aoe: short header: %d bytes", len(b))
	}
	if b[0]>>4 != 1 {
		return Header{}, fmt.Errorf("aoe: unsupported version %d", b[0]>>4)
	}
	var h Header
	h.Flags = b[0] & 0x0F
	h.Error = b[1]
	h.Major = binary.BigEndian.Uint16(b[2:])
	h.Minor = b[4]
	h.Tag = binary.BigEndian.Uint32(b[6:])
	h.AFlags = b[10]
	h.Feature = b[11]
	h.Count = binary.BigEndian.Uint16(b[12:])
	h.Cmd = b[14]
	h.LBA = binary.BigEndian.Uint64(b[16:]) & 0xFFFFFFFFFFFF
	h.FragTotal = binary.BigEndian.Uint16(b[24:])
	h.Stamp = int64(binary.BigEndian.Uint64(b[26:]))
	return h, nil
}

// Message is a protocol message in flight: the header plus, for read
// responses and write requests, the sector payload it carries. Payloads
// travel by reference; WireSize accounts for their bytes.
type Message struct {
	Header
	Payload disk.Payload
}

// IsResponse reports whether the message is a target response.
func (m *Message) IsResponse() bool { return m.Flags&FlagResponse != 0 }

// IsWrite reports whether the ATA command transfers data to the target.
func (m *Message) IsWrite() bool { return m.AFlags&AFlagWrite != 0 }

// WireSize reports the frame payload size on the wire: AoE header plus
// carried sectors.
func (m *Message) WireSize() int64 {
	n := int64(HeaderSize)
	if m.carriesData() {
		n += int64(m.Count) * disk.SectorSize
	}
	return n
}

func (m *Message) carriesData() bool {
	if m.IsResponse() {
		return !m.IsWrite() && m.Flags&FlagError == 0 // read response
	}
	return m.IsWrite() // write request
}

// SectorsPerFrame reports how many sectors fit in one frame on a link with
// the given MTU, accounting for Ethernet and AoE headers. With the paper's
// 9000-byte-payload jumbo frames this is 17 sectors per fragment.
func SectorsPerFrame(mtu int64) int64 {
	n := (mtu - 18 /* ethernet */ - HeaderSize) / disk.SectorSize
	if n < 1 {
		panic(fmt.Sprintf("aoe: MTU %d cannot carry a sector", mtu))
	}
	return n
}

// Fragments reports how many fragments a count-sector transfer needs on a
// link carrying perFrame sectors per frame.
func Fragments(count, perFrame int64) int {
	n := int((count + perFrame - 1) / perFrame)
	if n > MaxFragments {
		panic(fmt.Sprintf("aoe: %d-sector transfer needs %d fragments (max %d)", count, n, MaxFragments))
	}
	return n
}
