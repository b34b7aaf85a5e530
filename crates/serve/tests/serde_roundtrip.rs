//! Serde round-trip regressions for the engine — the one serialized value
//! a snapshot still carries (its JSON is the deployment identity recovery
//! checks) — including the versioned-engine compatibility fallback (a
//! serialized engine with no `version` field deserializes to V1, so
//! engines recorded before versioning keep their recorded behavior).
//!
//! Round trips go all the way through the JSON text codec, not just
//! `Value`.

use rrp_core::{EngineVersion, RankPromotionEngine};
use rrp_ranking::{PromotionConfig, PromotionRule};
use serde::{Deserialize, Serialize, Value};

/// Through the text codec: value → JSON text → value → T.
fn roundtrip<T: Serialize + Deserialize>(value: &T) -> T {
    let text = serde_json::to_string(&value.to_value()).expect("serializes");
    let parsed: Value = serde_json::from_str(&text).expect("parses");
    T::from_value(&parsed).expect("deserializes")
}

#[test]
fn engines_roundtrip_for_both_versions() {
    for version in [EngineVersion::V1, EngineVersion::V2] {
        let engine = RankPromotionEngine::new(
            PromotionConfig::new(PromotionRule::Uniform, 2, 0.25).unwrap(),
        )
        .with_seed(0xBEEF)
        .with_version(version);
        let back = roundtrip(&engine);
        assert_eq!(back, engine);
        assert_eq!(back.version(), version);
    }
}

#[test]
fn an_engine_without_a_version_field_falls_back_to_v1() {
    // The compatibility contract from the engine-versioning change:
    // engines serialized before the `version` field existed deserialize
    // to V1, keeping their recorded goldens valid.
    let engine = RankPromotionEngine::recommended()
        .with_seed(42)
        .with_version(EngineVersion::V2);
    let Value::Map(fields) = engine.to_value() else {
        panic!("engines serialize as maps");
    };
    let stripped: Vec<(String, Value)> = fields
        .into_iter()
        .filter(|(name, _)| name != "version")
        .collect();
    assert!(
        stripped.iter().any(|(name, _)| name == "config"),
        "the stripped map still carries the config"
    );
    let legacy = RankPromotionEngine::from_value(&Value::Map(stripped))
        .expect("a pre-versioning engine still deserializes");
    assert_eq!(legacy.version(), EngineVersion::V1);
    assert_eq!(legacy, engine.with_version(EngineVersion::V1));
}
