//! Writing the few JSON shapes the benchmark prints. Reading goes through
//! `potemkin::json`.

use potemkin::json::escape;

/// A JSON object under construction, members in insertion order.
pub struct Obj(String);

impl Obj {
    pub fn new() -> Obj {
        Obj(String::from("{"))
    }

    /// Adds a member whose value is already JSON.
    pub fn raw(&mut self, key: &str, value: &str) {
        if self.0.len() > 1 {
            self.0.push_str(", ");
        }
        self.0.push_str(&format!("\"{}\": {value}", escape(key)));
    }

    /// Adds a number with all its digits; JSON has no NaN or infinity.
    pub fn num(&mut self, key: &str, value: f64) {
        assert!(value.is_finite(), "{key} is not a finite number");
        self.raw(key, &format!("{value}"));
    }

    pub fn int(&mut self, key: &str, value: u64) {
        self.raw(key, &value.to_string());
    }

    pub fn bool(&mut self, key: &str, value: bool) {
        self.raw(key, if value { "true" } else { "false" });
    }

    pub fn str(&mut self, key: &str, value: &str) {
        self.raw(key, &format!("\"{}\"", escape(value)));
    }

    pub fn strs(&mut self, key: &str, values: &[String]) {
        let items: Vec<String> = values.iter().map(|v| format!("\"{}\"", escape(v))).collect();
        self.raw(key, &format!("[{}]", items.join(", ")));
    }

    pub fn finish(mut self) -> String {
        self.0.push('}');
        self.0
    }
}
