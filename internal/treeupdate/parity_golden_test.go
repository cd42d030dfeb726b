package treeupdate_test

// parityRow is what one seeded run left on the simulated machine: the
// formatted machine.Stats, the trace digest and the number of traced events.
type parityRow struct {
	stats  string
	digest uint64
	events uint64
}

// parityGolden was recorded at commit 31abec7 by running this package's
// parity_test.go against the seven per-flavour files the update template
// replaced. Do not edit a row to make the test pass; see parity_test.go.
// The two chromatic rows were re-recorded once, when the red-leaf rules
// went: no rule makes a red leaf, so the residual-overweight test in the
// cleanup walk and the leaf test between RB2 and PUSH were dropped. Only
// their loads (3,298 per row, and the cycles and energy they cost) moved.
var parityGolden = map[string]parityRow{
	"llx-tree":            {"{Ops:0 Loads:392720 Stores:70026 CASes:14375 L1Hits:458811 L2Hits:2082 RemoteFills:0 MemFills:16228 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:9758 SocketHops:0 TagAdds:0 TagRemoves:0 TagOverflows:0 Validates:0 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:0 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:3110009 TotalCycles:3110009 Energy:2.418663e+06}", 0xb09974eddf16155e, 473858},
	"hoh-tree":            {"{Ops:0 Loads:199329 Stores:19052 CASes:0 L1Hits:215625 L2Hits:608 RemoteFills:0 MemFills:9224 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:5128 SocketHops:0 TagAdds:94338 TagRemoves:43256 TagOverflows:0 Validates:44980 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:3263 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:1627894 TotalCycles:1627894 Energy:1.326153e+06}", 0x70098eec662cc308, 407476},
	"elided-tree":         {"{Ops:0 Loads:210138 Stores:19053 CASes:0 L1Hits:226434 L2Hits:610 RemoteFills:0 MemFills:9227 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:5131 SocketHops:0 TagAdds:97601 TagRemoves:43256 TagOverflows:0 Validates:44980 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:3263 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:1660639 TotalCycles:1660639 Energy:1.337334e+06}", 0x7c255b1152c57a9, 421548},
	"hoh-tree/immediate":  {"{Ops:0 Loads:215739 Stores:28224 CASes:0 L1Hits:246917 L2Hits:0 RemoteFills:0 MemFills:314 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:0 SocketHops:0 TagAdds:98976 TagRemoves:47894 TagOverflows:0 Validates:48135 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:3263 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:817641 TotalCycles:817641 Energy:284597}", 0x969e4df2d0b28282, 445488},
	"elided-tree/tiny-l1": {"{Ops:0 Loads:957420 Stores:70048 CASes:26361 L1Hits:915762 L2Hits:736557 RemoteFills:0 MemFills:16215 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:9747 SocketHops:0 TagAdds:811864 TagRemoves:0 TagOverflows:0 Validates:405929 ValidateFails:175284 VASAttempts:0 VASFails:0 IASAttempts:6 IASFails:6 SpuriousEvictions:301431 RemoteTagEvictions:0 MaxCycles:11048755 TotalCycles:11048755 Energy:7.280904e+06}", 0x69c2b36b7a0662be, 2569822},
	"llx-tree/4-8":        {"{Ops:0 Loads:428828 Stores:66681 CASes:11950 L1Hits:490553 L2Hits:512 RemoteFills:0 MemFills:16394 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:9114 SocketHops:0 TagAdds:0 TagRemoves:0 TagOverflows:0 Validates:0 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:0 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:3196767 TotalCycles:3196767 Energy:2.460905e+06}", 0x9bcf825b789da33, 502697},
	"hoh-tree/4-8":        {"{Ops:0 Loads:185212 Stores:24521 CASes:0 L1Hits:206805 L2Hits:107 RemoteFills:0 MemFills:10501 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:6469 SocketHops:0 TagAdds:95265 TagRemoves:23271 TagOverflows:0 Validates:30662 ValidateFails:1 VASAttempts:0 VASFails:0 IASAttempts:2820 IASFails:0 SpuriousEvictions:1 RemoteTagEvictions:0 MaxCycles:1710709 TotalCycles:1710709 Energy:1.467567e+06}", 0x58c57ab1c2b67f04, 364565},
	"llx-bst":             {"{Ops:0 Loads:358794 Stores:48040 CASes:10765 L1Hits:403151 L2Hits:5918 RemoteFills:0 MemFills:8530 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:4433 SocketHops:0 TagAdds:0 TagRemoves:0 TagOverflows:0 Validates:0 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:0 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:2181753 TotalCycles:2181753 Energy:1.462259e+06}", 0xd5ffa2da0e71cc52, 417514},
	"hoh-bst":             {"{Ops:0 Loads:290702 Stores:9774 CASes:0 L1Hits:299208 L2Hits:1715 RemoteFills:0 MemFills:3665 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:0 SocketHops:0 TagAdds:97817 TagRemoves:75317 TagOverflows:0 Validates:97817 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:2397 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:1380594 TotalCycles:1380594 Energy:749298}", 0x32f585265e471dfe, 576207},
	"llx-chromatic":       {"{Ops:0 Loads:568799 Stores:106945 CASes:19663 L1Hits:669126 L2Hits:7931 RemoteFills:0 MemFills:18350 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:14240 SocketHops:0 TagAdds:0 TagRemoves:0 TagOverflows:0 Validates:0 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:0 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:4037040 TotalCycles:4037040 Energy:2.918712e+06}", 0xc42563302d12b589, 695316},
	"hoh-chromatic":       {"{Ops:0 Loads:394767 Stores:35683 CASes:0 L1Hits:425088 L2Hits:3530 RemoteFills:0 MemFills:8680 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:4583 SocketHops:0 TagAdds:81646 TagRemoves:52795 TagOverflows:0 Validates:77770 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:3695 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:2263693 TotalCycles:2263693 Energy:1.487868e+06}", 0x36cbd0b0651937f8, 650027},
}
