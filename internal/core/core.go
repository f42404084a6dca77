// Package core is Dordis's orchestration layer: it composes the DSkellam
// codec, the XNoise noise-enforcement scheme, the SecAgg/SecAgg+ secure
// aggregation protocols, and the pipeline executor into end-to-end
// training rounds (the architecture of paper Fig. 7).
package core
