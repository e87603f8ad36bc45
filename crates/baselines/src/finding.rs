//! Common finding type shared by all baseline tools.

/// Which baseline produced a finding.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Tool {
    /// Clang `-Wunused`-style AST walking.
    Clang,
    /// fb-infer's dead-store check.
    InferUnused,
    /// Smatch's unchecked-return-value checks.
    SmatchUnused,
    /// Coverity Scan's unused-value / unchecked-return checks.
    CoverityUnused,
}

impl Tool {
    /// Display name matching Table 5's rows.
    pub fn name(&self) -> &'static str {
        match self {
            Tool::Clang => "Clang",
            Tool::InferUnused => "Infer-unused",
            Tool::SmatchUnused => "Smatch-unused",
            Tool::CoverityUnused => "Coverity-unused",
        }
    }
}

/// One warning from a baseline tool.
#[derive(Clone, Debug)]
pub struct Finding {
    /// The reporting tool.
    pub tool: Tool,
    /// File of the warning.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Containing function.
    pub function: String,
    /// The variable concerned (empty for bare ignored-call warnings).
    pub variable: String,
    /// Short warning category, e.g. `dead-store`, `unchecked-return`.
    pub kind: String,
}

impl Finding {
    /// Stable identity for cross-tool comparison: `(function, variable,
    /// line)`.
    pub fn identity(&self) -> (String, String, u32) {
        (self.function.clone(), self.variable.clone(), self.line)
    }
}
