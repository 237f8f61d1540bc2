//go:build !linux || !(amd64 || arm64)

package udpnet

// txBatch is empty where sendmmsg is not wired up: writeTx sends one
// datagram per syscall.
type txBatch struct{}

func (n *Node) initTx() error { return nil }

func (n *Node) writeTx() {
	for i := range n.txq {
		f := &n.txq[i]
		nw, err := n.conn.WriteToUDPAddrPort(f.enc, f.to)
		if err != nil {
			n.ctr.txSocketErr.Inc()
		} else {
			n.ctr.txDatagrams.Inc()
			n.ctr.txBytes.Add(int64(nw))
		}
	}
}
