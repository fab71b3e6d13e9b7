package virtualwire

import "reflect"

// NeighborTable identifies a built node's static ARP table by the
// address of its map, so the external tests can tell whether two nodes
// read the same one.
func (n *Node) NeighborTable() uintptr { return reflect.ValueOf(n.host.Neighbors).Pointer() }
