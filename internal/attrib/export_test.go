package attrib

// AnalyzeReference exposes the reference replay to the external tests.
var AnalyzeReference = analyzeReference
