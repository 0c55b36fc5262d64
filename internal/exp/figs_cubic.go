package exp

import "mpcc/internal/topo"

// Fig12Protocols is the Figs. 12–13 multipath lineup (the paper drops the
// TCP-unfriendly MPCC-loss and focuses on MPCC-latency, §7.2.6).
var Fig12Protocols = []Protocol{MPCCLatency, LIA, OLIA, Balia, WVegas, Reno}

// cubicFriendlinessBuffer declares Fig. 12: on topology 3c with a
// single-path TCP Cubic competitor on link 2, sweep link 1's buffer and
// report both the multipath and the Cubic goodput.
func cubicFriendlinessBuffer(cfg Config) sweep[int] {
	return bufferSweep(cfg, topo.Fig3c, Fig12Protocols, Cubic,
		goodputMbps("Fig 12a — multipath goodput vs link-1 buffer, SP=Cubic (topology 3c), Mbps", "mp"),
		goodputMbps("Fig 12b — single-path Cubic goodput vs link-1 buffer (topology 3c), Mbps", "sp"))
}

// cubicFriendlinessLoss declares Fig. 13: the same setup with random loss
// on link 1 instead of a buffer sweep.
func cubicFriendlinessLoss(cfg Config) sweep[float64] {
	return lossSweep(cfg, topo.Fig3c, Fig12Protocols, Cubic,
		goodputMbps("Fig 13a — multipath goodput vs link-1 random loss, SP=Cubic (topology 3c), Mbps", "mp"),
		goodputMbps("Fig 13b — single-path Cubic goodput vs link-1 random loss (topology 3c), Mbps", "sp"))
}
