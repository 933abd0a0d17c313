package dex

// ReferenceDecode exposes the streaming oracle decoder to the external
// differential fuzz test, which needs real archives built by packages
// that themselves import dex.
var ReferenceDecode = referenceDecode
