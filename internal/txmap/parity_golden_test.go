package txmap_test

// trafficGolden was recorded at commit b45d294, before the map's mirrored
// rotations and fixups were folded into one side-indexed copy. Do not edit a
// row to make the test pass; see parity_test.go.
var trafficGolden = map[string]trafficRow{
	"norec":       {"{Ops:0 Loads:345608 Stores:32687 CASes:4355 L1Hits:381023 L2Hits:92 RemoteFills:0 MemFills:1535 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:0 SocketHops:0 TagAdds:0 TagRemoves:0 TagOverflows:0 Validates:0 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:0 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:1317979 TotalCycles:1317979 Energy:565775}", 0x34e3597f1a0ca7a7, 382647},
	"tagged":      {"{Ops:0 Loads:186014 Stores:32687 CASes:0 L1Hits:235669 L2Hits:92 RemoteFills:0 MemFills:1535 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:0 SocketHops:0 TagAdds:81664 TagRemoves:0 TagOverflows:0 Validates:168304 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:4355 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:999966 TotalCycles:999966 Energy:420421}", 0x4036f1ca45a3902f, 491528},
	"tagged/pool": {"{Ops:0 Loads:187501 Stores:34174 CASes:0 L1Hits:239833 L2Hits:0 RemoteFills:0 MemFills:349 InvalidationsSent:0 InvalidationsReceived:0 Writebacks:0 SocketHops:0 TagAdds:81664 TagRemoves:0 TagOverflows:0 Validates:168304 ValidateFails:0 VASAttempts:0 VASFails:0 IASAttempts:4355 IASFails:0 SpuriousEvictions:0 RemoteTagEvictions:0 MaxCycles:890742 TotalCycles:890742 Energy:281713}", 0xfce9fbb2717e0b01, 494502},
}
