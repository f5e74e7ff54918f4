//! Interoperable Object References (CORBA 2.2 §10.6).
//!
//! An IOR names an object: a repository type id plus a sequence of tagged
//! profiles, each telling one protocol how to reach it. The standard
//! `TAG_INTERNET_IOP` profile carries an IIOP host/port/object-key triple;
//! we add a `TAG_FTMP_MULTICAST` profile carrying the fault-tolerance
//! addressing FTMP needs — the domain, object group and the domain's
//! multicast address — which is how a client learns where to send its
//! ConnectRequest (§7). A fault-tolerant IOR typically carries both: plain
//! ORBs fall back to IIOP unicast, FTMP-aware ORBs use the group profile.
//!
//! Profile bodies are CDR encapsulations (own byte-order octet), so IORs
//! survive re-marshalling through ORBs of either endianness.

use crate::GiopError;
use ftmp_cdr::{
    decode_encapsulation, encode_encapsulation, ByteOrder, CdrDecode, CdrEncode, CdrError,
    CdrReader, CdrWriter,
};

/// The standard IIOP profile tag.
pub const TAG_INTERNET_IOP: u32 = 0;
/// The standard multiple-components profile tag.
pub const TAG_MULTIPLE_COMPONENTS: u32 = 1;
/// Our FTMP group profile tag (`b"FTMP"` as a big-endian u32; vendor tags
/// above the OMG-reserved range).
pub const TAG_FTMP_MULTICAST: u32 = 0x4654_4D50;

/// One tagged profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TaggedProfile {
    /// Profile tag (see the `TAG_*` constants).
    pub tag: u32,
    /// Profile body, usually a CDR encapsulation.
    pub data: Vec<u8>,
}

impl CdrEncode for TaggedProfile {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.tag);
        w.write_octet_seq(&self.data);
    }
}

impl CdrDecode for TaggedProfile {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(TaggedProfile {
            tag: r.read_u32()?,
            data: r.read_octet_seq()?,
        })
    }
}

/// The standard IIOP 1.0 profile body.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct IiopProfile {
    /// IIOP major version (1).
    pub version_major: u8,
    /// IIOP minor version (0).
    pub version_minor: u8,
    /// Server host (name or dotted decimal).
    pub host: String,
    /// Server TCP port.
    pub port: u16,
    /// Opaque object key.
    pub object_key: Vec<u8>,
}

impl CdrEncode for IiopProfile {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u8(self.version_major);
        w.write_u8(self.version_minor);
        w.write_string(&self.host);
        w.write_u16(self.port);
        w.write_octet_seq(&self.object_key);
    }
}

impl CdrDecode for IiopProfile {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(IiopProfile {
            version_major: r.read_u8()?,
            version_minor: r.read_u8()?,
            host: r.read_string()?,
            port: r.read_u16()?,
            object_key: r.read_octet_seq()?,
        })
    }
}

/// The FTMP group profile body: everything a client-side fault tolerance
/// infrastructure needs to open a logical connection to the object group.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FtmpProfile {
    /// Fault tolerance domain id.
    pub domain: u32,
    /// Object group number within the domain.
    pub object_group: u32,
    /// The domain's multicast address (ConnectRequests go here, §7).
    pub domain_mcast_addr: u32,
    /// Opaque object key within the group.
    pub object_key: Vec<u8>,
}

impl CdrEncode for FtmpProfile {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_u32(self.domain);
        w.write_u32(self.object_group);
        w.write_u32(self.domain_mcast_addr);
        w.write_octet_seq(&self.object_key);
    }
}

impl CdrDecode for FtmpProfile {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        Ok(FtmpProfile {
            domain: r.read_u32()?,
            object_group: r.read_u32()?,
            domain_mcast_addr: r.read_u32()?,
            object_key: r.read_octet_seq()?,
        })
    }
}

/// An Interoperable Object Reference.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Ior {
    /// Repository id of the most derived interface (may be empty).
    pub type_id: String,
    /// Reachability profiles.
    pub profiles: Vec<TaggedProfile>,
}

impl CdrEncode for Ior {
    fn encode(&self, w: &mut CdrWriter) {
        w.write_string(&self.type_id);
        self.profiles.encode(w);
    }
}

impl CdrDecode for Ior {
    fn decode(r: &mut CdrReader<'_>) -> Result<Self, CdrError> {
        let type_id = r.read_string()?;
        // A profile is at least eight octets (its tag and its data's
        // length): the count is held to that before anything is reserved.
        let count = r.read_seq_len(8)?;
        let mut profiles = Vec::with_capacity(count);
        for _ in 0..count {
            profiles.push(TaggedProfile::decode(r)?);
        }
        Ok(Ior { type_id, profiles })
    }
}

impl Ior {
    /// Build an IOR with both an IIOP fallback profile and the FTMP group
    /// profile — the shape a fault-tolerant ORB would publish.
    pub fn fault_tolerant(
        type_id: &str,
        iiop: IiopProfile,
        ftmp: FtmpProfile,
        order: ByteOrder,
    ) -> Self {
        Ior {
            type_id: type_id.to_string(),
            profiles: vec![
                TaggedProfile {
                    tag: TAG_INTERNET_IOP,
                    data: encode_encapsulation(&iiop, order),
                },
                TaggedProfile {
                    tag: TAG_FTMP_MULTICAST,
                    data: encode_encapsulation(&ftmp, order),
                },
            ],
        }
    }

    /// Extract the IIOP profile, if present.
    pub fn iiop_profile(&self) -> Option<IiopProfile> {
        self.profiles
            .iter()
            .find(|p| p.tag == TAG_INTERNET_IOP)
            .and_then(|p| decode_encapsulation(&p.data).ok())
    }

    /// Extract the FTMP group profile, if present.
    pub fn ftmp_profile(&self) -> Option<FtmpProfile> {
        self.profiles
            .iter()
            .find(|p| p.tag == TAG_FTMP_MULTICAST)
            .and_then(|p| decode_encapsulation(&p.data).ok())
    }

    /// Marshal to the stringified-IOR byte form (the CDR encapsulation that
    /// `IOR:` hex strings encode).
    pub fn to_bytes(&self, order: ByteOrder) -> Vec<u8> {
        encode_encapsulation(self, order)
    }

    /// Unmarshal from the stringified-IOR byte form.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, GiopError> {
        decode_encapsulation(bytes).map_err(GiopError::Cdr)
    }

    /// Render as a conventional `IOR:<hex>` string.
    pub fn to_ior_string(&self, order: ByteOrder) -> String {
        let bytes = self.to_bytes(order);
        let mut s = String::with_capacity(4 + bytes.len() * 2);
        s.push_str("IOR:");
        for b in bytes {
            s.push_str(&format!("{b:02x}"));
        }
        s
    }

    /// Parse a conventional `IOR:<hex>` string.
    pub fn from_ior_string(s: &str) -> Result<Self, GiopError> {
        let hex = s
            .strip_prefix("IOR:")
            .ok_or(GiopError::BadMagic(*b"IOR:"))?;
        if hex.len() % 2 != 0 {
            return Err(GiopError::Cdr(CdrError::BadString));
        }
        let mut bytes = Vec::with_capacity(hex.len() / 2);
        for i in (0..hex.len()).step_by(2) {
            let b = u8::from_str_radix(&hex[i..i + 2], 16)
                .map_err(|_| GiopError::Cdr(CdrError::InvalidUtf8))?;
            bytes.push(b);
        }
        Self::from_bytes(&bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample() -> Ior {
        Ior::fault_tolerant(
            "IDL:Bank/Account:1.0",
            IiopProfile {
                version_major: 1,
                version_minor: 0,
                host: "replica1.example.org".into(),
                port: 2809,
                object_key: b"bank/account/7".to_vec(),
            },
            FtmpProfile {
                domain: 2,
                object_group: 7,
                domain_mcast_addr: 0xE000_0001,
                object_key: b"bank/account/7".to_vec(),
            },
            ByteOrder::Big,
        )
    }

    #[test]
    fn profiles_round_trip() {
        let ior = sample();
        let iiop = ior.iiop_profile().unwrap();
        assert_eq!(iiop.host, "replica1.example.org");
        assert_eq!(iiop.port, 2809);
        let ftmp = ior.ftmp_profile().unwrap();
        assert_eq!(ftmp.domain, 2);
        assert_eq!(ftmp.object_group, 7);
        assert_eq!(ftmp.domain_mcast_addr, 0xE000_0001);
    }

    #[test]
    fn bytes_round_trip_both_orders() {
        for order in [ByteOrder::Big, ByteOrder::Little] {
            let ior = sample();
            let bytes = ior.to_bytes(order);
            assert_eq!(Ior::from_bytes(&bytes).unwrap(), ior);
        }
    }

    #[test]
    fn ior_string_round_trip() {
        let ior = sample();
        let s = ior.to_ior_string(ByteOrder::Little);
        assert!(s.starts_with("IOR:"));
        assert_eq!(Ior::from_ior_string(&s).unwrap(), ior);
    }

    #[test]
    fn missing_profiles_are_none() {
        let ior = Ior {
            type_id: "IDL:Plain:1.0".into(),
            profiles: vec![],
        };
        assert!(ior.iiop_profile().is_none());
        assert!(ior.ftmp_profile().is_none());
    }

    #[test]
    fn malformed_strings_rejected() {
        assert!(Ior::from_ior_string("ior:00").is_err());
        assert!(Ior::from_ior_string("IOR:0").is_err());
        assert!(Ior::from_ior_string("IOR:zz").is_err());
        assert!(Ior::from_bytes(&[]).is_err());
    }

    #[test]
    fn unknown_profile_tags_are_preserved() {
        let mut ior = sample();
        ior.profiles.push(TaggedProfile {
            tag: 0xDEAD,
            data: vec![1, 2, 3],
        });
        let back = Ior::from_bytes(&ior.to_bytes(ByteOrder::Big)).unwrap();
        assert_eq!(back.profiles.len(), 3);
        assert_eq!(back.profiles[2].data, vec![1, 2, 3]);
        // Known profiles still decode.
        assert!(back.ftmp_profile().is_some());
    }

    proptest! {
        #[test]
        fn prop_ior_round_trip(
            type_id in "[ -~&&[^\u{0}]]{0,40}",
            host in "[a-z0-9.]{1,30}",
            port: u16,
            key in proptest::collection::vec(any::<u8>(), 0..32),
            domain: u32, og: u32, addr: u32,
            little: bool,
        ) {
            let order = ByteOrder::from_flag(little);
            let ior = Ior::fault_tolerant(
                &type_id,
                IiopProfile { version_major: 1, version_minor: 0, host, port, object_key: key.clone() },
                FtmpProfile { domain, object_group: og, domain_mcast_addr: addr, object_key: key },
                order,
            );
            let s = ior.to_ior_string(order);
            prop_assert_eq!(Ior::from_ior_string(&s).unwrap(), ior);
        }
    }
}
